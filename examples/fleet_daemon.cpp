// fleet_daemon — the NSYNC fleet as a standalone service.
//
// Owns a ShardedFleet (N shards, each a private MonitorEngine on its own
// worker thread) and serves the NSFP frame-ingest protocol over a
// Unix-domain socket (or localhost TCP with --tcp).  Acquisition hosts
// connect as clients and drive admission, frame ingest, stats polling and
// eviction over the wire; all detection runs here, on the shard workers.
//
// Crash safety: with --checkpoint <dir> every shard writes its streaming
// state to `<dir>/fleet.<shard>.nckp` after each drain round, and each
// session's spec (reference signals, configs, thresholds, policy) once, at
// admission, to `<dir>/fleet.<shard>.nckp.s<id>.spec`; the state file
// names each spec by size and CRC.  Admissions and evictions checkpoint
// synchronously.  After a SIGKILL, relaunching with --resume restores the
// whole fleet from those files (and deletes the tmp and spec files the
// crash orphaned); clients re-connect, read each channel's frames_fed
// offset from POLL_STATS and resume their streams — final verdicts are
// bitwise identical to an uninterrupted run (the CI fleet-daemon job pins
// this).
//
// Baseline adaptation: with --baseline-dir <dir> each shard keeps a
// per-device baseline registry (printer-model x sensor-profile) and
// re-learns OCC thresholds from prints that finished benign with healthy
// channels.  Clients opt a session in by sending a non-empty model key in
// its ADD_SESSION spec; registries persist to `<dir>/baselines.<i>.nbrg`
// and ride inside the shard checkpoints, so --resume continues adaptation.
//
// Fusion override: with `--fusion any|majority|all|weighted` every
// admitted session fuses with the given policy regardless of what the
// client's ADD_SESSION spec carried — an operator-side knob for a fleet
// whose clients predate score fusion.  `weighted` applies the uniform
// (untrained) weighted policy; clients that want *learned* reliability
// weights fit them locally and send the policy in the spec instead.
// Restored sessions keep their checkpointed policy either way.
//
// Resilience: --idle-timeout-ms reaps connections that go silent (dead
// peers, half-open TCP links) instead of leaking a thread per ghost
// client; --write-timeout-ms closes consumers that cannot drain a reply;
// --max-conns answers connects beyond the cap with a typed BUSY error
// carrying a retry-after hint, which reconnecting clients honor.  The
// transport counters (accepted / busy-rejected / accept errors / idle
// reaped / write timeouts) are printed at shutdown.
//
//   ./fleet_daemon --listen <uds-path> [--tcp <port>] [--shards N]
//                  [--checkpoint <dir>] [--resume] [--baseline-dir <dir>]
//                  [--policy block|drop-oldest|reject] [--queue-frames N]
//                  [--fusion any|majority|all|weighted]
//                  [--idle-timeout-ms N] [--write-timeout-ms N]
//                  [--max-conns N]
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fusion.hpp"
#include "engine/fleet_server.hpp"
#include "engine/sharded_fleet.hpp"
#include "eval/options.hpp"
#include "signal/checkpoint.hpp"

using namespace nsync;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string uds_path;
  std::uint16_t tcp_port = 0;
  std::size_t shards = 2;
  std::string checkpoint_dir;
  std::string baseline_dir;
  bool resume = false;
  std::string policy = "block";
  std::string fusion;  // empty = honor each client spec's policy
  std::size_t queue_frames = 1u << 20;
  // 30 s default: generous against paced feeders, still bounded against
  // half-open peers.  0 disables.
  std::uint32_t idle_timeout_ms = 30000;
  std::uint32_t write_timeout_ms = 0;
  std::size_t max_conns = 0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of `arg` as a number no larger than `max`, so an
      // out-of-range value is refused instead of wrapping into the field.
      const auto number = [&](std::uint64_t max) {
        const char* v = i + 1 < argc ? argv[++i] : nullptr;
        const std::uint64_t n = eval::parse_u64(arg, v);
        if (n > max) {
          throw std::invalid_argument(arg + ": " + v +
                                      " is out of range (max " +
                                      std::to_string(max) + ")");
        }
        return n;
      };
      if (arg == "--listen" && i + 1 < argc) {
        uds_path = argv[++i];
      } else if (arg == "--tcp") {
        tcp_port = static_cast<std::uint16_t>(number(UINT16_MAX));
      } else if (arg == "--shards") {
        shards = number(SIZE_MAX);
        if (shards == 0) {
          throw std::invalid_argument("--shards: must be at least 1");
        }
      } else if (arg == "--checkpoint" && i + 1 < argc) {
        checkpoint_dir = argv[++i];
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--baseline-dir" && i + 1 < argc) {
        baseline_dir = argv[++i];
      } else if (arg == "--policy" && i + 1 < argc) {
        policy = argv[++i];
      } else if (arg == "--fusion" && i + 1 < argc) {
        fusion = argv[++i];
      } else if (arg == "--queue-frames") {
        queue_frames = number(SIZE_MAX);
      } else if (arg == "--idle-timeout-ms") {
        idle_timeout_ms = static_cast<std::uint32_t>(number(UINT32_MAX));
      } else if (arg == "--write-timeout-ms") {
        write_timeout_ms = static_cast<std::uint32_t>(number(UINT32_MAX));
      } else if (arg == "--max-conns") {
        max_conns = number(SIZE_MAX);
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: fleet_daemon --listen <uds-path> [--tcp <port>]"
                  << " [--shards N] [--checkpoint <dir>] [--resume]"
                  << " [--baseline-dir <dir>]"
                  << " [--policy block|drop-oldest|reject] [--queue-frames N]"
                  << " [--fusion any|majority|all|weighted]"
                  << " [--idle-timeout-ms N] [--write-timeout-ms N]"
                  << " [--max-conns N]\n";
        return 0;
      } else {
        std::cerr << "fleet_daemon: unknown argument " << arg
                  << " (see --help)\n";
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "fleet_daemon: " << e.what() << "\n";
    return 2;
  }
  if (uds_path.empty() && tcp_port == 0) {
    std::cerr << "fleet_daemon: --listen <uds-path> or --tcp <port> is "
                 "required\n";
    return 2;
  }
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "fleet_daemon: --resume requires --checkpoint <dir>\n";
    return 2;
  }

  engine::ShardedFleetOptions fopts;
  fopts.shards = shards;
  fopts.queue_capacity_frames = queue_frames;
  if (policy == "block") {
    fopts.overflow = engine::OverflowPolicy::kBlock;
  } else if (policy == "drop-oldest") {
    fopts.overflow = engine::OverflowPolicy::kDropOldest;
  } else if (policy == "reject") {
    fopts.overflow = engine::OverflowPolicy::kReject;
  } else {
    std::cerr << "fleet_daemon: unknown --policy " << policy << "\n";
    return 2;
  }
  if (!checkpoint_dir.empty()) {
    std::filesystem::create_directories(checkpoint_dir);
    fopts.checkpoint_dir = checkpoint_dir;
    fopts.checkpoint_every_polls = 1;
  }
  if (!baseline_dir.empty()) {
    std::filesystem::create_directories(baseline_dir);
    fopts.baseline.adaptive = true;
    fopts.baseline.dir = baseline_dir;
  }
  if (!fusion.empty()) {
    if (fusion == "weighted") {
      fopts.fusion_override = std::make_shared<core::WeightedPolicy>();
    } else {
      try {
        fopts.fusion_override =
            std::make_shared<core::VotingPolicy>(core::parse_fusion_rule(fusion));
      } catch (const std::invalid_argument& e) {
        std::cerr << "fleet_daemon: " << e.what() << " (or weighted)\n";
        return 2;
      }
    }
  }

  std::unique_ptr<engine::ShardedFleet> fleet;
  if (resume) {
    try {
      fleet = engine::ShardedFleet::restore(checkpoint_dir, fopts);
    } catch (const signal::CheckpointError& e) {
      std::cerr << "fleet_daemon: cannot resume from " << checkpoint_dir
                << ": " << e.what() << "\n";
      return 2;
    }
    const engine::FleetStats restored = fleet->stats();
    std::cout << "resumed " << restored.sessions << " sessions ("
              << restored.sessions - restored.evicted << " live) across "
              << shards << " shards from " << checkpoint_dir << "\n";
  } else {
    try {
      fleet = std::make_unique<engine::ShardedFleet>(fopts);
    } catch (const signal::CheckpointError& e) {
      std::cerr << "fleet_daemon: cannot checkpoint to " << checkpoint_dir
                << ": " << e.what() << "\n";
      return 2;
    }
  }

  engine::FleetServerOptions sopts;
  sopts.uds_path = uds_path;
  sopts.tcp_port = tcp_port;
  sopts.idle_timeout_ms = idle_timeout_ms;
  sopts.write_timeout_ms = write_timeout_ms;
  sopts.max_connections = max_conns;
  engine::FleetServer server(*fleet, sopts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "fleet_daemon: " << e.what() << "\n";
    return 2;
  }
  if (!uds_path.empty()) {
    std::cout << "listening on " << uds_path;
  } else {
    std::cout << "listening on 127.0.0.1:" << server.bound_tcp_port();
  }
  std::cout << " (" << shards << " shards, policy " << policy << ")"
            << std::endl;  // flush: the smoke test waits for this line

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const engine::FleetServerStats sstats = server.stats();
  server.stop();
  // Final checkpoint so a graceful shutdown preserves everything staged.
  if (!checkpoint_dir.empty()) {
    fleet->flush();
    fleet->checkpoint_all();
  }
  const engine::FleetStats stats = fleet->stats();
  std::cout << "shutdown: " << stats.sessions << " sessions ("
            << stats.sessions - stats.evicted << " live), "
            << stats.windows << " windows, " << stats.shed_frames
            << " shed, " << stats.rejected_frames << " rejected\n";
  std::cout << "transport: " << sstats.connections_accepted << " accepted, "
            << sstats.connections_busy_rejected << " busy-rejected, "
            << sstats.accept_errors << " accept errors, "
            << sstats.idle_reaped << " idle-reaped, "
            << sstats.write_timeouts << " write timeouts\n";
  return 0;
}
