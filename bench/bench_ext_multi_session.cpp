// Extension experiment (beyond the paper): multi-session fleet throughput
// across ShardedFleet shard counts.
//
// Simulates a fleet of concurrent print-monitoring sessions — each with
// two side channels streaming frames in acquisition-sized chunks — and
// measures aggregate windows/sec as the session count and the shard count
// vary.  Every row runs the same ShardedFleet loop: each shard owns a
// private engine on a dedicated worker thread fed through a bounded MPSC
// queue.  Per-session verdicts are bitwise identical across all shard
// counts (pinned by tests/test_sharded_fleet.cpp), so the sweep measures
// pure scheduling.  Every row also reports the fleet's p50/p99
// feed→verdict latency from the per-shard log-linear histograms (within
// ~3 % of the true quantile).
//
// A second section drives the fleet past its load-shed threshold: a small
// queue with the drop-oldest policy, fed with no pacing, shows how
// throughput and shed accounting behave at saturation.
//
// Every row runs `--reps` times, each on a fresh fleet and round-robin
// over the rows, and reports the median of each quantity plus the median
// absolute deviation of the time and the rate: how many cores a shared
// host grants moves single runs far more than the shard count does.
//
// Flags: --sessions a,b,c  session counts to sweep (default 1,8,32)
//        --shards a,b,c    shard counts to sweep, each >= 1 (default
//                          1,2,4)
//        --frames n        observed frames per channel (default 12288)
//        --chunk n         frames per feed() call (default 256)
//        --reps n          runs per row (>= 1, default 5)
//        --no-saturation   skip the load-shed section
//        --json path       machine-readable results (BENCH_fleet.json)
//        --context k=v     extra provenance for the JSON context block
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/nsync.hpp"
#include "engine/sharded_fleet.hpp"
#include "eval/options.hpp"
#include "eval/table.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using nsync::signal::Rng;
using nsync::signal::Signal;

namespace {

/// Band-limited pseudo side-channel signal.  A slow chirp rides on the
/// smoothed noise so every window has a distinct temporal signature —
/// pure low-pass noise has broad autocorrelation peaks and the TDEB
/// tracker occasionally mis-locks on it over long streams, which would
/// turn this throughput bench into an accuracy experiment.
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

/// The reference with small time warps and measurement noise — one
/// session's live observation stream.
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
  // Throughput bench, not an accuracy experiment: calibrate generously so
  // benign streams never alarm and every session runs the full print.
  cfg.r = 1.0;
  return cfg;
}

struct Fixture {
  std::vector<std::string> channel_names = {"ACC", "AUD"};
  std::vector<Signal> references;
  std::vector<core::Thresholds> thresholds;
  core::NsyncConfig cfg = dwm_config();
};

engine::SessionSpec make_spec(const Fixture& fx, std::size_t s) {
  engine::SessionSpec spec;
  spec.name = "print-" + std::to_string(s);
  spec.rule = core::FusionRule::kAny;
  for (std::size_t c = 0; c < fx.channel_names.size(); ++c) {
    engine::ChannelSpec ch;
    ch.name = fx.channel_names[c];
    ch.reference = fx.references[c];
    ch.config = fx.cfg;
    ch.thresholds = fx.thresholds[c];
    spec.channels.push_back(std::move(ch));
  }
  return spec;
}

/// One run of one row.
struct Run {
  std::size_t windows = 0;
  double seconds = 0.0;
  double p50_us = 0.0;  ///< feed→verdict latency
  double p99_us = 0.0;
  std::uint64_t shed_frames = 0;
  std::size_t alarms = 0;
};

/// One row over its reps: the median of every quantity, the MAD of the
/// time and the rate, and the most alarms any run raised.
struct Result {
  std::size_t shards = 0;
  std::size_t sessions = 0;
  double windows = 0.0;
  double seconds = 0.0;
  double seconds_mad = 0.0;
  double windows_per_sec = 0.0;
  double windows_per_sec_mad = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double shed_frames = 0.0;
  std::size_t alarms = 0;
};

/// Feeds the first `n_sessions` streams from this thread, processes them
/// on the shard workers, flush() as the barrier.  Options beyond the shard
/// count let the saturation section shrink the queue and switch the
/// overflow policy.
Run run_sharded(const Fixture& fx,
                const std::vector<std::vector<Signal>>& streams,
                std::size_t n_sessions, std::size_t chunk,
                engine::ShardedFleetOptions fopts) {
  engine::ShardedFleet fleet(fopts);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    fleet.add_session(make_spec(fx, s));
  }

  const auto t0 = std::chrono::steady_clock::now();
  bool more = true;
  for (std::size_t off = 0; more; off += chunk) {
    more = false;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < fx.channel_names.size(); ++c) {
        const Signal& sig = streams[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + chunk, sig.frames());
        fleet.feed(s, fx.channel_names[c],
                   signal::SignalView(sig).slice(off, hi));
        if (hi < sig.frames()) more = true;
      }
    }
  }
  fleet.flush();
  const auto t1 = std::chrono::steady_clock::now();

  const engine::FleetStats stats = fleet.stats();
  Run r;
  r.windows = static_cast<std::size_t>(stats.windows);
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.p50_us = stats.p50_feed_to_verdict_us;
  r.p99_us = stats.p99_feed_to_verdict_us;
  r.shed_frames = stats.shed_frames;
  for (const auto& snap : fleet.snapshots()) {
    if (snap.intrusion) ++r.alarms;
  }
  return r;
}

/// One row of a table: a session count and the fleet it runs on.
struct Row {
  std::size_t sessions = 0;
  engine::ShardedFleetOptions fopts;
};

/// `reps` runs of every row, each on a fresh fleet, summarized per row.
/// The reps go round-robin over the rows, so a stretch in which the
/// shared host grants fewer cores lands on every row alike instead of on
/// all the reps of one.
std::vector<Result> run_rows(const Fixture& fx,
                             const std::vector<std::vector<Signal>>& streams,
                             const std::vector<Row>& rows, std::size_t chunk,
                             std::size_t reps) {
  std::vector<std::vector<Run>> runs(rows.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      runs[i].push_back(
          run_sharded(fx, streams, rows[i].sessions, chunk, rows[i].fopts));
    }
  }
  std::vector<Result> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto each = [&](auto field) {
      std::vector<double> v;
      for (const Run& r : runs[i]) v.push_back(static_cast<double>(field(r)));
      return v;
    };
    const auto seconds = each([](const Run& r) { return r.seconds; });
    const auto rate = each([](const Run& r) {
      return r.seconds > 0.0 ? static_cast<double>(r.windows) / r.seconds
                             : 0.0;
    });
    Result row;
    row.shards = rows[i].fopts.shards;
    row.sessions = rows[i].sessions;
    row.windows =
        bench::median_of(each([](const Run& r) { return r.windows; }));
    row.seconds = bench::median_of(seconds);
    row.seconds_mad = bench::median_abs_deviation(seconds);
    row.windows_per_sec = bench::median_of(rate);
    row.windows_per_sec_mad = bench::median_abs_deviation(rate);
    row.p50_us = bench::median_of(each([](const Run& r) { return r.p50_us; }));
    row.p99_us = bench::median_of(each([](const Run& r) { return r.p99_us; }));
    row.shed_frames =
        bench::median_of(each([](const Run& r) { return r.shed_frames; }));
    for (const Run& r : runs[i]) row.alarms = std::max(row.alarms, r.alarms);
    out.push_back(row);
  }
  return out;
}

std::vector<std::size_t> parse_list(const std::string& flag,
                                    const std::string& s) {
  std::vector<std::size_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(
        static_cast<std::size_t>(eval::parse_u64(flag, tok.c_str())));
  }
  return out;
}

void emit_json(const std::string& path, const bench::Context& context,
               std::size_t reps, std::size_t frames_per_channel,
               std::size_t chunk, const std::vector<Result>& scaling,
               const std::vector<Result>& saturation) {
  const auto emit = [](std::ofstream& out, const std::vector<Result>& rs) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const Result& r = rs[i];
      out << "    {\"shards\": " << r.shards << ", \"sessions\": "
          << r.sessions << ", \"windows\": " << r.windows
          << ", \"seconds\": " << r.seconds << ", \"seconds_mad\": "
          << r.seconds_mad << ", \"windows_per_sec\": " << r.windows_per_sec
          << ", \"windows_per_sec_mad\": " << r.windows_per_sec_mad
          << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
          << ", \"shed_frames\": " << r.shed_frames << "}"
          << (i + 1 < rs.size() ? "," : "") << "\n";
    }
  };
  std::ofstream out(path);
  // Every value is the median over the reps; a run's latencies are
  // quantiles of its per-batch histogram.
  out << "{\n  \"benchmark\": \"fleet\",\n  ";
  context.write(out, "\"reps\": " + std::to_string(reps) +
                         ", \"statistic\": \"median\", \"latency\": "
                         "\"log-linear histogram, bucket midpoint\"");
  out << ",\n  \"frames_per_channel\": " << frames_per_channel
      << ",\n  \"chunk\": " << chunk << ",\n  \"scaling\": [\n";
  emit(out, scaling);
  out << "  ],\n  \"saturation\": [\n";
  emit(out, saturation);
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> session_counts = {1, 8, 32};
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  std::size_t frames_per_channel = 12288;
  std::size_t chunk = 256;
  std::size_t reps = 5;
  bool saturation_section = true;
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
        session_counts = parse_list(arg, next());
      } else if (arg == "--shards") {
        shard_counts = parse_list(arg, next());
      } else if (arg == "--frames") {
        frames_per_channel = number();
      } else if (arg == "--chunk") {
        chunk = number();
      } else if (arg == "--reps") {
        reps = number();
        if (reps == 0) throw std::invalid_argument("--reps must be >= 1");
      } else if (arg == "--no-saturation") {
        saturation_section = false;
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--context") {
        context.add(next());
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: " << argv[0]
                  << " [--sessions a,b,c] [--shards a,b,c]"
                     " [--frames n] [--chunk n] [--reps n] [--no-saturation]"
                     " [--json path] [--context key=value]...\n";
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
  if (std::find(shard_counts.begin(), shard_counts.end(), 0) !=
      shard_counts.end()) {
    std::cerr << "--shards: every shard count must be at least 1\n";
    return 2;
  }
  std::cout << "EXTENSION: sharded fleet multi-session throughput\n"
            << "(hardware_concurrency="
            << std::thread::hardware_concurrency() << ", "
            << frames_per_channel << " frames/channel, chunk=" << chunk
            << ", median of " << reps << " reps)\n\n";

  // One fleet-wide calibration: learn thresholds once on benign runs and
  // hand them to every session, as a deployment would.
  Fixture fx;
  for (std::size_t c = 0; c < fx.channel_names.size(); ++c) {
    Signal ref = make_reference(frames_per_channel, 100 + c);
    core::NsyncIds ids(ref, fx.cfg);
    std::vector<Signal> train;
    for (std::uint64_t s = 0; s < 6; ++s) {
      train.push_back(benign_observation(ref, 10 * (s + 1) + c));
    }
    ids.fit(train);
    // The six training runs may never drift a full sample, in which case
    // DWM reports h_disp == 0 throughout and OCC learns c_c = h_c = 0 —
    // a threshold any benign stream trips the first time its accumulated
    // time-warp crosses half a sample.  Floor the displacement thresholds
    // at a few samples of benign wander and widen v past its tail: this
    // is a throughput bench, alarms would not change the measured work
    // (windows keep processing after the verdict latches), but a quiet
    // fleet keeps the output readable.
    core::Thresholds t = ids.thresholds();
    t.c_c = std::max(3.0 * t.c_c, 64.0);
    t.h_c = std::max(3.0 * t.h_c, 8.0);
    t.v_c *= 3.0;
    fx.thresholds.push_back(t);
    fx.references.push_back(std::move(ref));
  }

  // Every session's observation streams, generated before any timing so
  // the timed loops measure the engine, not the simulator.  An n-session
  // row feeds the first n.
  const std::size_t max_sessions =
      *std::max_element(session_counts.begin(), session_counts.end());
  std::vector<std::vector<Signal>> streams(max_sessions);
  for (std::size_t s = 0; s < max_sessions; ++s) {
    for (std::size_t c = 0; c < fx.channel_names.size(); ++c) {
      streams[s].push_back(
          benign_observation(fx.references[c], 1000 + 7 * s + c));
    }
  }

  std::vector<Row> scaling_rows;
  for (std::size_t n_sessions : session_counts) {
    for (std::size_t n_shards : shard_counts) {
      if (n_shards > n_sessions) continue;  // idle shards measure nothing
      Row row;
      row.sessions = n_sessions;
      row.fopts.shards = n_shards;
      scaling_rows.push_back(row);
    }
  }
  const std::vector<Result> scaling =
      run_rows(fx, streams, scaling_rows, chunk, reps);
  eval::AsciiTable table({"Shards", "Sessions", "Windows", "Seconds",
                          "Windows/sec", "MAD", "p50us", "p99us", "Alarms"});
  for (const Result& r : scaling) {
    table.add_row({std::to_string(r.shards), std::to_string(r.sessions),
                   eval::fmt(r.windows, 0), eval::fmt(r.seconds, 3),
                   eval::fmt(r.windows_per_sec, 0),
                   eval::fmt(r.windows_per_sec_mad, 0), eval::fmt(r.p50_us, 0),
                   eval::fmt(r.p99_us, 0), std::to_string(r.alarms)});
  }
  table.print(std::cout);
  std::cout << "\n(benign streams: Alarms should be 0; aggregate windows/sec\n"
               " should grow with shard count until the physical core count\n"
               " is reached — on a single-core host all rows are flat)\n";

  std::vector<Result> saturation;
  if (saturation_section) {
    // Past the load-shed threshold: a deliberately tiny queue with the
    // drop-oldest policy, fed with no pacing.  Throughput holds (the
    // workers stay busy) while the shed counters account for every frame
    // that was sacrificed; with kBlock these rows would instead converge
    // to the scaling rows above.
    std::vector<Row> rows;
    for (std::size_t n_shards : shard_counts) {
      if (n_shards > max_sessions) continue;
      Row row;
      row.sessions = max_sessions;
      row.fopts.shards = n_shards;
      row.fopts.queue_capacity_frames = 2048;
      row.fopts.overflow = engine::OverflowPolicy::kDropOldest;
      rows.push_back(row);
    }
    saturation = run_rows(fx, streams, rows, chunk, reps);
    eval::AsciiTable sat({"Shards", "Sessions", "Windows", "Seconds",
                          "Windows/sec", "MAD", "Shed frames", "p99us"});
    for (const Result& r : saturation) {
      sat.add_row({std::to_string(r.shards), std::to_string(r.sessions),
                   eval::fmt(r.windows, 0), eval::fmt(r.seconds, 3),
                   eval::fmt(r.windows_per_sec, 0),
                   eval::fmt(r.windows_per_sec_mad, 0),
                   eval::fmt(r.shed_frames, 0), eval::fmt(r.p99_us, 0)});
    }
    std::cout << "\nLoad shedding past saturation (queue=2048 frames, "
                 "drop-oldest):\n";
    sat.print(std::cout);
  }

  if (!json_path.empty()) {
    emit_json(json_path, context, reps, frames_per_channel, chunk, scaling,
              saturation);
  }
  return 0;
}
