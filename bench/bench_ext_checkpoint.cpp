// Extension experiment (beyond the paper): checkpoint/restore cost of the
// crash-safe MonitorEngine persistence layer vs fleet size.
//
// A mid-print fleet is built (each session two channels, streamed halfway
// through its print so the synchronizer rings, min-filter deques and
// health machines hold realistic state), then three operations are timed:
//
//   serialize — snapshot the whole fleet into a checkpoint payload
//   write     — serialize + CRC framing + atomic tmp/fsync/rename replace
//   restore   — rebuild the entire fleet from the file
//
// The interesting quantity is overhead per poll round: with the default
// policy (checkpoint every poll) the write cost is paid on every round, so
// it must stay small against the window-processing work itself.
//
// Flags: --sessions a,b,c  session counts to sweep (default 1,8,32)
//        --frames n        observed frames per channel (default 6144)
//        --reps n          timing repetitions (>= 1); the median and the
//                          median absolute deviation are reported
//                          (default 5)
//        --dir path        where the checkpoint file is written (default .)
//        --json path       machine-readable results (BENCH_checkpoint.json)
//        --context k=v     extra provenance for the JSON context block
//                          (repeatable; run_benches.sh passes git_sha and
//                          build_type).  hardware_concurrency, simd_isa
//                          and reps are always recorded.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "eval/options.hpp"
#include "eval/table.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using nsync::signal::Rng;
using nsync::signal::Signal;

namespace {

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  constexpr double kPi = 3.14159265358979323846;
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    const double t = static_cast<double>(n) / 100.0;
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0 + 0.7 * std::sin(2.0 * kPi * (0.5 + 0.010 * t) * t);
    s(n, 1) = lp1 + 0.7 * std::cos(2.0 * kPi * (0.4 + 0.008 * t) * t);
  }
  return s;
}

Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  double src = 0.0;
  std::vector<double> row(b.channels());
  while (src < static_cast<double>(b.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);
  }
  return a;
}

core::NsyncConfig dwm_config() {
  core::NsyncConfig cfg;
  cfg.sync = core::SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 1.0;
  return cfg;
}

std::vector<std::size_t> parse_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(
        static_cast<std::size_t>(eval::parse_u64("--sessions", tok.c_str())));
  }
  return out;
}

/// Median and median absolute deviation of `reps` (>= 1) timed runs.
struct Timing {
  double median_ms = 0.0;
  double mad_ms = 0.0;
};

template <typename F>
Timing time_ms(std::size_t reps, F&& op) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    op();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return {bench::median_of(ms), bench::median_abs_deviation(ms)};
}

struct Result {
  std::size_t sessions = 0;
  std::size_t windows = 0;
  std::size_t bytes = 0;
  Timing serialize;
  Timing write;
  Timing restore;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> session_counts = {1, 8, 32};
  std::size_t frames_per_channel = 6144;
  std::size_t reps = 5;
  std::string dir = ".";
  std::string json_path;
  bench::Context context;

  // Malformed numbers (eval::parse_u64 throws) and --reps 0 exit 2.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      auto number = [&]() -> std::size_t {
        return static_cast<std::size_t>(
            eval::parse_u64(arg, i + 1 < argc ? argv[++i] : nullptr));
      };
      if (arg == "--sessions") {
        session_counts = parse_list(next());
      } else if (arg == "--frames") {
        frames_per_channel = number();
      } else if (arg == "--reps") {
        reps = number();
        if (reps == 0) throw std::invalid_argument("--reps must be >= 1");
      } else if (arg == "--dir") {
        dir = next();
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--context") {
        context.add(next());
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: " << argv[0]
                  << " [--sessions a,b,c] [--frames n] [--reps n]"
                     " [--dir path] [--json path] [--context key=value]...\n";
        return 0;
      } else {
        std::cerr << "unknown flag " << arg << "\n";
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "EXTENSION: MonitorEngine checkpoint/restore cost\n"
            << "(" << frames_per_channel << " frames/channel, fleet streamed"
            << " halfway, median of " << reps << " reps)\n\n";

  const core::NsyncConfig cfg = dwm_config();
  const std::vector<std::string> channel_names = {"ACC", "AUD"};
  std::vector<Signal> references;
  for (std::size_t c = 0; c < channel_names.size(); ++c) {
    references.push_back(make_reference(frames_per_channel, 100 + c));
  }
  core::Thresholds loose;
  loose.c_c = 1e9;
  loose.h_c = 1e9;
  loose.v_c = 1e9;

  const std::string path = dir + "/BENCH_checkpoint.nckp";
  std::vector<Result> results;
  eval::AsciiTable table({"Sessions", "Windows", "KiB", "Serialize ms",
                          "Write ms", "Restore ms"});
  for (std::size_t n_sessions : session_counts) {
    engine::MonitorEngine eng;
    std::vector<std::vector<Signal>> streams(n_sessions);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      engine::SessionSpec spec;
      spec.name = "print-" + std::to_string(s);
      for (std::size_t c = 0; c < channel_names.size(); ++c) {
        engine::ChannelSpec ch;
        ch.name = channel_names[c];
        ch.reference = references[c];
        ch.config = cfg;
        ch.thresholds = loose;
        spec.channels.push_back(std::move(ch));
        streams[s].push_back(
            benign_observation(references[c], 1000 + 7 * s + c));
      }
      eng.add_session(std::move(spec));
    }

    // Stream the first half of every print so the checkpoint captures a
    // realistic mid-flight fleet.
    std::size_t windows = 0;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < channel_names.size(); ++c) {
        const Signal& sig = streams[s][c];
        windows += eng.feed(s, channel_names[c],
                            signal::SignalView(sig).slice(0, sig.frames() / 2));
      }
    }
    (void)eng.poll_inline();

    Result r;
    r.sessions = n_sessions;
    r.windows = windows;
    std::vector<std::uint8_t> payload;
    r.serialize = time_ms(reps, [&] { payload = eng.serialize(); });
    r.bytes = payload.size();
    r.write = time_ms(reps, [&] { eng.checkpoint(path); });
    engine::MonitorEngine restored;
    r.restore =
        time_ms(reps, [&] { restored = engine::MonitorEngine::restore(path); });
    if (restored.sessions() != n_sessions) {
      std::cerr << "restore mismatch: " << restored.sessions() << " sessions\n";
      return 1;
    }
    results.push_back(r);
    table.add_row({std::to_string(r.sessions), std::to_string(r.windows),
                   eval::fmt(static_cast<double>(r.bytes) / 1024.0, 1),
                   eval::fmt(r.serialize.median_ms, 3),
                   eval::fmt(r.write.median_ms, 3),
                   eval::fmt(r.restore.median_ms, 3)});
    // checkpoint() writes each session's spec file beside the state file.
    std::remove(path.c_str());
    for (std::size_t s = 0; s < n_sessions; ++s) {
      std::remove(engine::MonitorEngine::spec_path(path, s).c_str());
    }
  }
  table.print(std::cout);
  std::cout << "\n(Write ms is the full atomic protocol — serialize, CRC,\n"
               " tmp file, fsync, rename — i.e. the per-poll overhead of\n"
               " the checkpoint_every_polls=1 policy)\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"checkpoint\",\n  ";
    context.write(out, "\"reps\": " + std::to_string(reps) +
                           ", \"statistic\": \"median\"");
    out << ",\n  \"frames_per_channel\": " << frames_per_channel
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      out << "    {\"sessions\": " << r.sessions
          << ", \"windows\": " << r.windows << ", \"bytes\": " << r.bytes
          << ", \"serialize_ms\": " << r.serialize.median_ms
          << ", \"serialize_ms_mad\": " << r.serialize.mad_ms
          << ", \"write_ms\": " << r.write.median_ms
          << ", \"write_ms_mad\": " << r.write.mad_ms
          << ", \"restore_ms\": " << r.restore.median_ms
          << ", \"restore_ms_mad\": " << r.restore.mad_ms << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
