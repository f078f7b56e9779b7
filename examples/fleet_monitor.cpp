// Fleet monitoring quickstart: an acquisition-side client of fleet_daemon.
//
// Each session simulates one concurrent print job with two side channels
// (accelerometer-like and audio-like pseudo signals).  Most sessions
// stream benign observations; one streams a tampered print.  The dataset
// is replayed over the NSFP wire protocol to a running fleet_daemon
// through ResilientWireClient: sessions are admitted with ADD_SESSION
// (the daemon re-attaches by name, so fresh and resumed daemons take the
// same path), frames stream via FEED at explicit absolute offsets, and the
// final verdicts come back from POLL_STATS.  All detection, sharding,
// checkpointing and baseline adaptation run in the daemon.
//
// Crash safety: a daemon started with --checkpoint can be SIGKILLed and
// relaunched with --resume.  Re-running this client then reads each
// channel's frames_fed offset back and replays only the lost tail, so the
// final verdicts are identical to a run that was never interrupted (the CI
// fleet-daemon job pins this).  With --retry N the same client survives up
// to N reconnects per call (daemon restart, dropped connection, kBusy
// admission rejection) and resyncs its feed cursors from the daemon, so no
// frame is ever double-counted (the CI fleet-soak job).  Without --retry,
// a refused connection or a mid-run disconnect exits with code 3
// (transport failure); daemon-side typed errors and bad arguments exit 2.
//
// Fusion: `--fusion any|majority|all|weighted` selects how per-channel
// verdicts combine.  The rule names are the boolean votes; `weighted`
// fits per-channel reliability weights on the calibration prints and
// fuses continuous anomaly scores (see core/fusion.hpp).  The policy
// travels in the ADD_SESSION spec and is serialized into the daemon's
// checkpoints, so a resumed daemon keeps fusing identically.
//
//   ./fleet_monitor --connect <uds> [sessions] [attack_session]
//                   [--retry N] [--pace-ms <n>]
//                   [--fusion any|majority|all|weighted]
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/resilient_client.hpp"
#include "engine/wire_client.hpp"
#include "eval/options.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using nsync::signal::Rng;
using nsync::signal::Signal;

namespace {

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  // Timing error is mean-reverting (a servo tracking the toolpath), not a
  // random walk: an AR(1) offset keeps every print's drift envelope
  // consistent, so thresholds calibrated on a few prints bound the rest.
  double offset = 0.0;
  std::vector<double> row(b.channels());
  for (std::size_t n = 0; n + 1 < b.frames(); ++n) {
    offset = 0.995 * offset + rng.normal(0.0, 0.02);
    const double src = std::clamp(static_cast<double>(n) + offset, 0.0,
                                  static_cast<double>(b.frames() - 1));
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
  }
  return a;
}

/// Benign stream with the middle third replaced by an unrelated toolpath.
Signal malicious_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 5000);
  const std::size_t lo = a.frames() / 3;
  const std::size_t hi = 2 * a.frames() / 3;
  double lp = 0.0;
  for (std::size_t n = lo; n < hi; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < a.channels(); ++c) a(n, c) = lp;
  }
  return a;
}

const char* health_name(std::uint8_t h) {
  switch (static_cast<core::ChannelHealth>(h)) {
    case core::ChannelHealth::kHealthy: return "healthy";
    case core::ChannelHealth::kDegraded: return "degraded";
    case core::ChannelHealth::kOffline: return "offline";
  }
  return "?";
}

/// A score as a hexfloat (%a): every bit of the double, so a diff of two
/// verdict lines compares scores exactly.
std::string hex_score(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Machine-readable verdict line, fused and per-channel scores included;
/// stable across clean and killed-and-resumed daemon runs (the CI
/// fleet-daemon and fleet-soak jobs diff these).
void print_verdict(const engine::wire::StatsSession& s) {
  std::cout << "verdict " << s.name << " "
            << (s.intrusion != 0 ? "INTRUSION" : "benign") << " window="
            << s.first_alarm_window << " windows=" << s.windows
            << " fused=" << hex_score(s.fused_score);
  for (const auto& ch : s.channels) {
    std::cout << " " << ch.name << "=" << (ch.alarm != 0 ? "alarm" : "ok")
              << "/" << health_name(ch.health)
              << " score=" << hex_score(ch.score);
  }
  std::cout << "\n";
}

struct Dataset {
  std::vector<std::string> channels;
  std::vector<Signal> references;
  std::vector<core::Thresholds> thresholds;
  /// Benign calibration anomaly scores, [run][channel] — the training
  /// input for --fusion weighted.
  std::vector<std::vector<double>> calib_scores;
  std::vector<std::vector<Signal>> streams;  // [session][channel]
  core::NsyncConfig cfg;
};

/// Everything is a deterministic function of (n_sessions, attack_session),
/// so an interrupted feeder regenerates the exact streams and
/// fast-forwards to the daemon's recorded offsets.
Dataset build_dataset(std::size_t n_sessions, std::size_t attack_session,
                      bool calibrate) {
  constexpr std::size_t kFrames = 6144;
  Dataset d;
  d.cfg.sync = core::SyncMethod::kDwm;
  d.cfg.dwm.n_win = 64;
  d.cfg.dwm.n_hop = 32;
  d.cfg.dwm.n_ext = 24;
  d.cfg.dwm.n_sigma = 12.0;
  d.cfg.dwm.eta = 0.2;
  // A wider OCC margin than the paper's default 0.3: these synthetic
  // benign prints are re-drawn per run, and 0.3 over a handful of
  // calibration prints leaves the tail of the benign v-distance
  // distribution above the threshold (sporadic false alarms).
  d.cfg.r = 0.55;
  d.channels = {"ACC", "AUD"};
  for (std::size_t c = 0; c < d.channels.size(); ++c) {
    d.references.push_back(make_reference(kFrames, 7 + c));
  }
  if (calibrate) {
    // Calibrate each channel's thresholds once on benign prints, then
    // share them across the fleet.
    constexpr std::size_t kCalibRuns = 5;
    d.calib_scores.assign(kCalibRuns,
                          std::vector<double>(d.channels.size(), 0.0));
    for (std::size_t c = 0; c < d.channels.size(); ++c) {
      core::NsyncIds ids(d.references[c], d.cfg);
      std::vector<Signal> train;
      for (std::uint64_t s = 0; s < kCalibRuns; ++s) {
        train.push_back(benign_observation(d.references[c], 20 * (s + 1) + c));
      }
      ids.fit(train);
      d.thresholds.push_back(ids.thresholds());
      // Score each calibration print against the fitted thresholds; the
      // weighted fusion policy learns its reliability weights from these.
      for (std::size_t s = 0; s < kCalibRuns; ++s) {
        d.calib_scores[s][c] = core::channel_score(
            ids.analyze(train[s]).features, ids.thresholds());
      }
    }
  }
  d.streams.resize(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    for (std::size_t c = 0; c < d.channels.size(); ++c) {
      d.streams[s].push_back(
          s == attack_session
              ? malicious_observation(d.references[c], 900 + 3 * s + c)
              : benign_observation(d.references[c], 900 + 3 * s + c));
    }
  }
  return d;
}

/// Builds the session fusion policy for --fusion: a voting policy for the
/// rule names, or a WeightedPolicy fitted on the dataset's calibration
/// scores.  parse_fusion_rule rejects unknown names listing the valid set.
std::shared_ptr<const core::FusionPolicy> make_policy(
    const std::string& fusion, const Dataset& d) {
  if (fusion == "weighted") {
    auto policy = std::make_shared<core::WeightedPolicy>();
    if (!d.calib_scores.empty()) policy->fit(d.channels, d.calib_scores);
    return policy;
  }
  return std::make_shared<core::VotingPolicy>(core::parse_fusion_rule(fusion));
}

engine::SessionSpec make_spec(
    const Dataset& d, std::size_t s,
    std::shared_ptr<const core::FusionPolicy> policy) {
  engine::SessionSpec spec;
  spec.name = "printer-" + std::to_string(s);
  spec.rule = core::FusionRule::kAny;
  spec.policy = std::move(policy);
  for (std::size_t c = 0; c < d.channels.size(); ++c) {
    engine::ChannelSpec ch;
    ch.name = d.channels[c];
    ch.reference = d.references[c];
    ch.config = d.cfg;
    ch.thresholds = d.thresholds[c];
    spec.channels.push_back(std::move(ch));
  }
  return spec;
}

/// Replays the dataset over the NSFP socket through the reconnecting
/// client.  `retries` transport failures per call are absorbed with
/// backoff + idempotent resync before giving up.
int run_client(const std::string& uds_path, std::size_t n_sessions,
               std::size_t attack_session, std::uint64_t pace_ms,
               const std::string& fusion, std::size_t retries) {
  constexpr std::size_t kChunk = 256;
  try {
    engine::ResilientClientOptions copts;
    copts.client_name = "fleet_monitor";
    copts.max_attempts = retries + 1;
    copts.backoff_base_ms = 50;
    copts.backoff_cap_ms = 2000;
    engine::ResilientWireClient client(
        engine::WireEndpoint{uds_path, /*tcp_port=*/0}, copts);
    const engine::wire::HelloOk hello = client.connect_now();
    const bool fresh = hello.sessions == 0;
    if (!fresh && hello.sessions != n_sessions) {
      std::cerr << "fleet_monitor: daemon holds " << hello.sessions
                << " sessions but " << n_sessions << " were requested\n";
      return 2;
    }
    Dataset d = build_dataset(n_sessions, attack_session, /*calibrate=*/fresh);
    if (!fresh) {
      // A resumed daemon re-attaches our ADD_SESSIONs by name and keeps
      // its checkpointed per-session state, so the re-sent specs only
      // need to be well-formed — no recalibration.
      d.thresholds.assign(d.channels.size(), core::Thresholds{});
    }

    // ADD_SESSION is idempotent by name, so fresh and resumed daemons
    // take the same path: register everything, then read the acked
    // cursors back (zero for new sessions, frames_fed for restored ones).
    const std::shared_ptr<const core::FusionPolicy> policy =
        fresh ? make_policy(fusion, d) : nullptr;
    std::vector<std::uint64_t> handles;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      handles.push_back(client.add_session(make_spec(d, s, policy)));
      if (fresh) {
        std::cout << "admitted printer-" << s << " as session " << handles[s]
                  << "\n";
      }
    }
    if (!fresh) {
      std::cout << "resuming " << n_sessions << " sessions over the wire\n";
    }
    std::vector<std::vector<std::size_t>> offsets(
        n_sessions, std::vector<std::size_t>(d.channels.size(), 0));
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < d.channels.size(); ++c) {
        offsets[s][c] = client.acked(handles[s], d.channels[c]);
      }
    }

    bool more = true;
    while (more) {
      more = false;
      for (std::size_t s = 0; s < n_sessions; ++s) {
        for (std::size_t c = 0; c < d.channels.size(); ++c) {
          const Signal& sig = d.streams[s][c];
          const std::size_t off = offsets[s][c];
          if (off >= sig.frames()) continue;
          const std::size_t hi = std::min(off + kChunk, sig.frames());
          const engine::ResilientWireClient::FeedOutcome out = client.feed(
              handles[s], d.channels[c], signal::SignalView(sig).slice(off, hi),
              off);
          // cursor is authoritative either way: past `hi` after a resync
          // fast-forward, below `off` when the daemon lost frames
          // (restarted fresh) and we must rewind and re-feed.
          offsets[s][c] = out.cursor;
          if (out.cursor < sig.frames()) more = true;
        }
      }
      if (pace_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
      }
    }

    // Wait for the shard workers to drain everything we fed.
    for (;;) {
      const engine::wire::Stats st = client.poll_stats(false);
      if (st.queued_frames == 0 && st.busy == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const engine::wire::Stats st = client.poll_stats(true);
    std::cout << "fleet over the wire: " << st.sessions << " sessions on "
              << st.shards << " shards, " << st.windows << " windows\n";
    for (const auto& s : st.sessions_detail) print_verdict(s);
    const engine::ResilientWireClient::Telemetry& t = client.telemetry();
    if (t.reconnects > 0 || t.transport_errors > 0) {
      std::cout << "transport: " << t.reconnects << " reconnects, "
                << t.transport_errors << " errors, "
                << t.fast_forwarded_frames << " frames fast-forwarded, "
                << t.rewinds << " rewinds\n";
    }
    return 0;
  } catch (const engine::WireError& e) {
    std::cerr << "fleet_monitor: daemon error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Transport failure (connection refused, mid-run disconnect, retries
    // exhausted): distinct exit code so scripts can tell "daemon said no"
    // from "daemon unreachable".
    std::cerr << "fleet_monitor: transport failure: " << e.what()
              << (retries == 0 ? " (use --retry N to reconnect)" : "")
              << "\n";
    return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string connect_path;
  std::string fusion = "any";
  std::size_t retries = 0;
  std::uint64_t pace_ms = 0;
  std::size_t n_sessions = 4;
  std::size_t attack_session = 1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      if (arg == "--connect" && i + 1 < argc) {
        connect_path = argv[++i];
      } else if (arg == "--fusion" && i + 1 < argc) {
        fusion = argv[++i];
      } else if (arg == "--pace-ms") {
        pace_ms = eval::parse_u64(arg, value());
      } else if (arg == "--retry") {
        retries = eval::parse_u64(arg, value());
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: fleet_monitor --connect <uds>"
                  << " [sessions] [attack_session] [--retry N]"
                  << " [--pace-ms <n>] [--fusion any|majority|all|weighted]\n";
        return 0;
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "fleet_monitor: unknown flag " << arg
                  << " (see --help)\n";
        return 2;
      } else {
        positional.push_back(arg);
      }
    }
    if (!positional.empty()) {
      n_sessions = eval::parse_u64("sessions", positional[0].c_str());
    }
    if (positional.size() > 1) {
      attack_session = eval::parse_u64("attack_session", positional[1].c_str());
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "fleet_monitor: " << e.what() << "\n";
    return 2;
  }
  if (fusion != "weighted") {
    // Reject bad names before any dataset work; the exception lists the
    // valid set.
    try {
      (void)core::parse_fusion_rule(fusion);
    } catch (const std::invalid_argument& e) {
      std::cerr << "fleet_monitor: " << e.what() << " (or weighted)\n";
      return 2;
    }
  }
  if (connect_path.empty()) {
    std::cerr << "fleet_monitor: --connect <uds> is required (see --help)\n";
    return 2;
  }
  return run_client(connect_path, n_sessions, attack_session, pace_ms, fusion,
                    retries);
}
