// The three fleet workloads: a real fleet_daemon process driven over a
// Unix socket by one load-generator process (2 feeder connections and 1
// stats probe), observed through its socket and /proc.
#ifndef BENCH_E2E_FLEET_HPP
#define BENCH_E2E_FLEET_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace bench {

enum class LoadMode { kOpenLoop, kClosedLoop, kChurn };

/// Frozen constants of one fleet workload (smoke runs shrink them).
struct FleetPlan {
  std::string workload;
  LoadMode mode = LoadMode::kOpenLoop;
  double block_s = 0.25;     ///< signal seconds per FEED
  double compression = 1.0;  ///< open loop: signal seconds per wall second
  double warmup_s = 2.0;
  bool durable = false;  ///< daemon runs --checkpoint and --baseline-dir
};

/// One monitored print: which pool print it streams and how it fuses.
struct Printer {
  std::size_t kind = 0;
  bool attacked = false;
  std::size_t pool = 0;
  std::shared_ptr<const nsync::core::FusionPolicy> policy;
  std::string name;
  std::string model;
  double offset = 0.0;  ///< open loop: stagger within a tick, in ticks

  [[nodiscard]] const std::vector<Signal>& streams(
      const std::vector<KindData>& kinds) const;
};

struct FleetData {
  FleetPlan plan;
  std::vector<KindData> kinds;
  /// Sessions admitted at set-up.  Churn admits more as prints finish.
  std::vector<Printer> initial;

  /// Churn: the n-th print of the run (n counts from 0 across both
  /// connections; the initial prints are 0 .. initial.size()-1).
  [[nodiscard]] Printer churn_print(std::size_t n) const;
};

[[nodiscard]] bool is_fleet_workload(const std::string& name);

/// Simulates and calibrates the workload's prints (off the clock).
[[nodiscard]] FleetData make_fleet_data(const std::string& workload,
                                        const RunOptions& opt);

/// One run: set-up, warm-up, measured phase, drain and checks.
[[nodiscard]] RunResult run_fleet(const FleetData& data,
                                  const RunOptions& opt);

}  // namespace bench

#endif  // BENCH_E2E_FLEET_HPP
