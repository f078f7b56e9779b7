// In-process layer replay of the traced run: the workload's own generated
// inputs go through each layer's public entry point, one layer at a time,
// timed around the calls from this file.  Built into bench_e2e_traced only.
#ifndef BENCH_E2E_REPLAY_HPP
#define BENCH_E2E_REPLAY_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "engine/monitor_engine.hpp"
#include "engine/sharded_fleet.hpp"
#include "signal/signal.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace bench {

struct ReplaySession {
  nsync::engine::SessionSpec spec;
  /// Observed prefix per channel, in spec channel order.
  std::vector<nsync::signal::SignalView> streams;
  std::vector<std::size_t> block;  ///< frames per FEED per channel
  const KindData* kind = nullptr;
};

struct ReplayInput {
  std::vector<ReplaySession> sessions;
  /// The daemon's fleet options (shards, overflow policy, durability).
  nsync::engine::ShardedFleetOptions fleet;
  /// Scratch directory for replay checkpoints.
  std::string scratch_dir;
  /// Training prints per channel are truncated to this many seconds for
  /// the fit timing.
  double fit_seconds = 20.0;
};

/// Runs every layer's replay, stores the per-layer metrics in r.layers and
/// returns the replay's spans.
std::vector<SpanRecord> replay_layers(const ReplayInput& in, RunResult& r);

}  // namespace bench

#endif  // BENCH_E2E_REPLAY_HPP
