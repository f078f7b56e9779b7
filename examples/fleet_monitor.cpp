// Fleet monitoring quickstart: several printers watched at once — in
// process, sharded across cores, or over the fleet daemon's socket.
//
// Each session simulates one concurrent print job with two side channels
// (accelerometer-like and audio-like pseudo signals).  Most sessions
// stream benign observations; one streams a tampered print.  Two modes:
//
//   * in process (default): a ShardedFleet partitions the sessions across
//     `--shards N` worker shards, each with a private engine and a bounded
//     frame queue; `--shards 0`, the default count, runs the same fleet
//     inline, without worker threads.  Verdicts are bitwise identical at
//     any shard count.
//   * --connect <uds-path>: client mode — the same dataset is replayed
//     over the NSFP wire protocol to a running fleet_daemon through
//     ResilientWireClient; sessions are admitted with ADD_SESSION (the
//     daemon re-attaches by name, so fresh and resumed daemons take the
//     same path), frames stream via FEED at explicit absolute offsets,
//     and the final verdicts come back from POLL_STATS.  With --retry N
//     the client survives up to N reconnects per call (daemon restart,
//     dropped connection, kBusy admission rejection) and resyncs its feed
//     cursors from the daemon's frames_fed offsets, so no frame is ever
//     double-counted.  Without --retry, a refused connection or a mid-run
//     disconnect exits with code 3 (transport failure) and a clear
//     message; daemon-side typed errors keep exiting with code 2.
//
// Crash-safe operation: with `--checkpoint <dir>` the fleet atomically
// writes `<dir>/fleet.<shard>.nckp` (`fleet.0.nckp` inline) after every
// feed round.  If the process dies (power cut, OOM kill, SIGKILL),
// relaunching with `--resume` restores the fleet from the checkpoint and
// resumes each channel's stream exactly where it left off — the final
// verdicts are identical to a run that was never interrupted (the CI
// crash-recovery job pins this).
//
// Drift adaptation: with `--rounds R --baseline-dir <dir>` the example
// switches to print-at-a-time operation.  Each round admits every printer
// as a fresh session (one print job), streams it to completion, prints the
// verdict, then evicts it — and eviction folds the print's benign feature
// maxima into the per-shard baseline registry, so the *next* round's
// admissions resolve drift-adapted OCC thresholds instead of the factory
// calibration.  The attacked printer alarms every round, so its folds stay
// frozen and never poison the baseline.  The registry persists to
// `<dir>/baselines.<shard>.nbrg` and rides inside the fleet checkpoints,
// so `--resume` continues adaptation exactly where the crash left it.
//
// Fusion: `--fusion any|majority|all|weighted` selects how per-channel
// verdicts combine.  The rule names are the boolean votes; `weighted`
// fits per-channel reliability weights on the calibration prints and
// fuses continuous anomaly scores (see core/fusion.hpp).  The policy is
// serialized into checkpoints and ADD_SESSION specs, so resumed and
// networked runs keep fusing identically.
//
//   ./fleet_monitor [sessions] [attack_session]
//                   [--shards N] [--connect <uds> [--retry N]]
//                   [--checkpoint <dir>] [--resume] [--pace-ms <n>]
//                   [--fusion any|majority|all|weighted]
//                   [--rounds R --baseline-dir <dir> [--model <name>]]
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/resilient_client.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_client.hpp"
#include "signal/checkpoint.hpp"
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

const char* health_name(core::ChannelHealth h) {
  switch (h) {
    case core::ChannelHealth::kHealthy: return "healthy";
    case core::ChannelHealth::kDegraded: return "degraded";
    case core::ChannelHealth::kOffline: return "offline";
  }
  return "?";
}

const char* health_name_u8(std::uint8_t h) {
  return health_name(static_cast<core::ChannelHealth>(h));
}

/// Machine-readable verdict line; stable across clean, killed-and-resumed
/// and networked runs (the CI crash-recovery and fleet-daemon jobs diff
/// these).
void print_verdict(const engine::SessionSnapshot& snap) {
  std::cout << "verdict " << snap.name << " "
            << (snap.intrusion ? "INTRUSION" : "benign") << " window="
            << snap.first_alarm_window << " windows=" << snap.windows;
  for (const auto& ch : snap.channels) {
    std::cout << " " << ch.name << "="
              << (ch.detection.intrusion ? "alarm" : "ok") << "/"
              << health_name(ch.health);
  }
  std::cout << "\n";
}

void print_verdict(const engine::wire::StatsSession& s) {
  std::cout << "verdict " << s.name << " "
            << (s.intrusion != 0 ? "INTRUSION" : "benign") << " window="
            << s.first_alarm_window << " windows=" << s.windows;
  for (const auto& ch : s.channels) {
    std::cout << " " << ch.name << "=" << (ch.alarm != 0 ? "alarm" : "ok")
              << "/" << health_name_u8(ch.health);
  }
  std::cout << "\n";
}

struct Dataset {
  std::vector<std::string> channels;
  std::vector<Signal> references;
  std::vector<core::Thresholds> thresholds;
  /// Benign calibration anomaly scores, [run][channel] — the training
  /// input for --fusion weighted.  Deterministic, so a resumed or
  /// networked run refits the exact same reliability weights.
  std::vector<std::vector<double>> calib_scores;
  std::vector<std::vector<Signal>> streams;  // [session][channel]
  core::NsyncConfig cfg;
};

/// Everything is a deterministic function of (n_sessions, attack_session),
/// so an interrupted feeder — local or remote — regenerates the exact
/// streams and fast-forwards to the recorded offsets.
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
  // benign prints are re-drawn per run/round, and 0.3 over a handful of
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
    const Dataset& d, std::size_t s, const std::string& model = "",
    std::shared_ptr<const core::FusionPolicy> policy = nullptr) {
  engine::SessionSpec spec;
  spec.name = "printer-" + std::to_string(s);
  spec.model = model;
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

/// A fresh fleet, or with `resume` the one checkpointed in
/// fopts.checkpoint_dir; null after reporting why it cannot be restored.
std::unique_ptr<engine::ShardedFleet> open_fleet(
    const engine::ShardedFleetOptions& fopts, bool resume) {
  if (!resume) return std::make_unique<engine::ShardedFleet>(fopts);
  try {
    return engine::ShardedFleet::restore(fopts.checkpoint_dir, fopts);
  } catch (const nsync::signal::CheckpointError& e) {
    std::cerr << "fleet_monitor: cannot resume from " << fopts.checkpoint_dir
              << ": " << e.what() << "\n";
    return nullptr;
  }
}

/// In-process mode: stream every session through the fleet in chunk-sized
/// feed rounds, draining after each round as an acquisition loop would.
int run_stream(std::size_t n_sessions, std::size_t attack_session,
               const engine::ShardedFleetOptions& fopts, bool resume,
               long pace_ms, const std::string& fusion) {
  constexpr std::size_t kChunk = 256;
  const std::unique_ptr<engine::ShardedFleet> fleet = open_fleet(fopts, resume);
  if (!fleet) return 2;
  Dataset d;  // thresholds filled only on the fresh (non-resume) path
  if (resume) {
    if (fleet->sessions() != n_sessions) {
      std::cerr << "fleet_monitor: checkpoint holds " << fleet->sessions()
                << " sessions but " << n_sessions << " were requested\n";
      return 2;
    }
    // The checkpoint and its spec files hold the specs and the streaming
    // state, so no recalibration is needed: pick the streams back up.
    d = build_dataset(n_sessions, attack_session, /*calibrate=*/false);
    std::cout << "resumed " << fleet->sessions() << " sessions across "
              << fopts.shards << " shards from " << fopts.checkpoint_dir
              << "\n";
  } else {
    d = build_dataset(n_sessions, attack_session, /*calibrate=*/true);
    const auto policy = make_policy(fusion, d);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      fleet->add_session(make_spec(d, s, "", policy));
    }
  }
  // Each channel resumes at its recorded frames_fed (0 on a fresh run).
  std::vector<std::vector<std::size_t>> offsets(
      n_sessions, std::vector<std::size_t>(d.channels.size(), 0));
  for (std::size_t s = 0; s < n_sessions; ++s) {
    for (const auto& ch : fleet->snapshot(s).channels) {
      for (std::size_t c = 0; c < d.channels.size(); ++c) {
        if (d.channels[c] == ch.name) offsets[s][c] = ch.frames_fed;
      }
    }
  }
  std::cout << "fleet: " << n_sessions << " sessions x " << d.channels.size()
            << " channels on " << fopts.shards << " shards; session "
            << attack_session << " streams a tampered print\n\n";
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < d.channels.size(); ++c) {
        const Signal& sig = d.streams[s][c];
        const std::size_t off = offsets[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        fleet->feed(s, d.channels[c], signal::SignalView(sig).slice(off, hi));
        offsets[s][c] = hi;
        if (hi < sig.frames()) more = true;
      }
    }
    fleet->flush();
    if (pace_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
    }
  }
  const engine::FleetStats stats = fleet->stats();
  std::cout << "windows: " << stats.windows << ", p50 feed->verdict "
            << stats.p50_feed_to_verdict_us << " us, p99 "
            << stats.p99_feed_to_verdict_us << " us\n";
  for (const auto& snap : fleet->snapshots()) print_verdict(snap);
  return 0;
}

/// Adaptive rounds mode (--rounds R with --baseline-dir): print-at-a-time
/// operation with per-device baseline adaptation between prints.  Every
/// quantity is a deterministic function of (sessions, attack, round), so a
/// killed run relaunched with --resume replays the remaining prints
/// bitwise identically — the CI crash-recovery job diffs the union of the
/// verdict lines and the final hexfloat registry dump against a clean run.
int run_rounds(std::size_t n_sessions, std::size_t attack_session,
               std::size_t rounds, engine::ShardedFleetOptions fopts,
               const std::string& model, const std::string& baseline_dir,
               bool resume, const std::string& fusion) {
  constexpr std::size_t kChunk = 256;
  std::filesystem::create_directories(baseline_dir);
  fopts.baseline.adaptive = true;
  fopts.baseline.dir = baseline_dir;
  fopts.baseline.policy.r = 0.55;  // match the calibration margin below
  const std::unique_ptr<engine::ShardedFleet> fleet = open_fleet(fopts, resume);
  if (!fleet) return 2;
  if (resume) {
    if (fleet->sessions() > rounds * n_sessions) {
      std::cerr << "fleet_monitor: checkpoint holds " << fleet->sessions()
                << " prints but only " << rounds * n_sessions
                << " were requested\n";
      return 2;
    }
    std::cout << "resumed adaptation at print " << fleet->sessions() << "/"
              << rounds * n_sessions << " from " << fopts.checkpoint_dir
              << "\n";
  }
  // Calibration is deterministic, so a resumed run recomputes the same
  // trained (factory) thresholds for the prints it still has to admit;
  // already-adapted devices override them at admission anyway.
  Dataset d = build_dataset(n_sessions, attack_session, /*calibrate=*/true);
  const std::shared_ptr<const core::FusionPolicy> policy =
      make_policy(fusion, d);
  std::cout << "adaptive fleet: " << n_sessions << " printers x " << rounds
            << " prints on " << fopts.shards << " shards; printer "
            << attack_session << " streams tampered prints\n";

  for (std::size_t r = 0; r < rounds; ++r) {
    // This round's prints: one stream per (printer, channel), seeded by
    // round so every print is distinct but reproducible.
    std::vector<std::vector<Signal>> streams(n_sessions);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < d.channels.size(); ++c) {
        const std::uint64_t seed = 900 + 10000 * r + 3 * s + c;
        streams[s].push_back(
            s == attack_session
                ? malicious_observation(d.references[c], seed)
                : benign_observation(d.references[c], seed));
      }
    }
    std::vector<std::size_t> ids(n_sessions, 0);
    std::vector<bool> done(n_sessions, false);
    std::vector<std::vector<std::size_t>> offsets(
        n_sessions, std::vector<std::size_t>(d.channels.size(), 0));
    for (std::size_t s = 0; s < n_sessions; ++s) {
      const std::size_t id = r * n_sessions + s;
      ids[s] = id;
      if (id < fleet->sessions()) {
        const engine::SessionSnapshot snap = fleet->snapshot(id);
        if (snap.evicted) {
          // The print finished, its verdict was reported, and its maxima
          // were folded before the crash — nothing left to replay.
          done[s] = true;
          continue;
        }
        for (const auto& ch : snap.channels) {
          for (std::size_t c = 0; c < d.channels.size(); ++c) {
            if (d.channels[c] == ch.name) offsets[s][c] = ch.frames_fed;
          }
        }
      } else {
        engine::SessionSpec spec = make_spec(d, s, model, policy);
        spec.name =
            "printer-" + std::to_string(s) + "-print-" + std::to_string(r);
        fleet->add_session(std::move(spec));  // durable; resolves adapted
      }
    }
    bool more = true;
    while (more) {
      more = false;
      for (std::size_t s = 0; s < n_sessions; ++s) {
        if (done[s]) continue;
        for (std::size_t c = 0; c < d.channels.size(); ++c) {
          const Signal& sig = streams[s][c];
          const std::size_t off = offsets[s][c];
          if (off >= sig.frames()) continue;
          const std::size_t hi = std::min(off + kChunk, sig.frames());
          fleet->feed(ids[s], d.channels[c],
                      signal::SignalView(sig).slice(off, hi));
          offsets[s][c] = hi;
          if (hi < sig.frames()) more = true;
        }
      }
    }
    fleet->flush();
    for (std::size_t s = 0; s < n_sessions; ++s) {
      if (!done[s]) print_verdict(fleet->snapshot(ids[s]));
    }
    // Flush stdout BEFORE evicting: eviction is what tells a resumed run
    // "this verdict was already reported", so the line must actually
    // reach the file/pipe first or a SIGKILL in between loses it.
    std::cout.flush();
    // Evict in id order so folds land in a deterministic sequence, and
    // flush before the next round so its admissions resolve against the
    // updated registry.
    for (std::size_t s = 0; s < n_sessions; ++s) {
      if (!done[s]) fleet->evict_session(ids[s]);
    }
    fleet->flush();
  }

  // Final registry dump.  Hexfloat so the CI diff is bit-exact.
  for (const auto& sh : fleet->baselines()) {
    for (const auto& e : sh.entries) {
      const engine::DeviceBaseline& b = e.baseline;
      std::cout << "baseline shard=" << sh.shard << " model=" << e.model
                << " profile=" << e.profile << " prints=" << b.prints
                << " frozen=" << b.frozen << std::hexfloat
                << " c=" << b.current.c_c << " h=" << b.current.h_c
                << " v=" << b.current.v_c << std::defaultfloat << "\n";
    }
  }
  return 0;
}

/// Client mode: replay the dataset over the NSFP socket through the
/// reconnecting client.  `retries` transport failures per call are
/// absorbed with backoff + idempotent resync before giving up.
int run_client(const std::string& uds_path, std::size_t n_sessions,
               std::size_t attack_session, long pace_ms,
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
      handles.push_back(client.add_session(make_spec(d, s, "", policy)));
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
  std::string checkpoint_dir;
  std::string connect_path;
  std::string baseline_dir;
  std::string model = "mk3";
  std::string fusion = "any";
  std::size_t rounds = 0;
  std::size_t shards = 0;
  std::size_t retries = 0;
  bool resume = false;
  long pace_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--pace-ms" && i + 1 < argc) {
      pace_ms = std::stol(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--baseline-dir" && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--model" && i + 1 < argc) {
      model = argv[++i];
    } else if (arg == "--fusion" && i + 1 < argc) {
      fusion = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--retry" && i + 1 < argc) {
      retries = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fleet_monitor [sessions] [attack_session]"
                << " [--shards N] [--connect <uds> [--retry N]]"
                << " [--checkpoint <dir>] [--resume] [--pace-ms <n>]"
                << " [--fusion any|majority|all|weighted]"
                << " [--rounds R --baseline-dir <dir> [--model <name>]]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "fleet_monitor: unknown flag " << arg
                << " (see --help)\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (resume && checkpoint_dir.empty() && connect_path.empty()) {
    std::cerr << "fleet_monitor: --resume requires --checkpoint <dir>\n";
    return 2;
  }
  if (rounds > 0 && baseline_dir.empty()) {
    std::cerr << "fleet_monitor: --rounds requires --baseline-dir <dir>\n";
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
  const std::size_t n_sessions =
      !positional.empty() ? static_cast<std::size_t>(std::stoul(positional[0]))
                          : 4;
  const std::size_t attack_session =
      positional.size() > 1
          ? static_cast<std::size_t>(std::stoul(positional[1]))
          : 1;

  if (!connect_path.empty()) {
    return run_client(connect_path, n_sessions, attack_session, pace_ms,
                      fusion, retries);
  }

  engine::ShardedFleetOptions fopts;
  fopts.shards = shards;
  if (!checkpoint_dir.empty()) {
    std::filesystem::create_directories(checkpoint_dir);
    fopts.checkpoint_dir = checkpoint_dir;  // written every drain round
  }
  if (rounds > 0) {
    return run_rounds(n_sessions, attack_session, rounds, fopts, model,
                      baseline_dir, resume, fusion);
  }
  return run_stream(n_sessions, attack_session, fopts, resume, pace_ms,
                    fusion);
}
