// The four bench_e2e workloads: their frozen constants, the data each one
// generates from a seed with the repo's own simulator, and the run result
// every workload returns.
#ifndef BENCH_E2E_WORKLOADS_HPP
#define BENCH_E2E_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "eval/setup.hpp"
#include "json.hpp"
#include "metrics.hpp"
#include "sensors/side_channel.hpp"
#include "signal/signal.hpp"

namespace bench {

using nsync::signal::Signal;

inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed never used while the constants below were calibrated; a claimed
/// gain must also hold on it.
inline constexpr std::uint64_t kHeldOutSeed = 7;
inline constexpr double kDefaultPhaseS = 10.0;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Host-speed samples (host_speed.hpp) before each set-up, and the fleet
/// probe's period between samples during the load.
inline constexpr int kHostSamplesPerSetup = 16;
inline constexpr double kHostSamplePeriodMs = 20.0;
/// farm_realtime's detection budget for verdict_p99_ms (the HPC-IDS budget
/// in SNIPPETS.md); the check uses the raw wall-clock value.
inline constexpr double kRealtimeP99LimitMs = 200.0;

// Daemon and generator shape (4-core host): the daemon runs 2 shards, the
// generator at most 3 threads with one connection each: the feeders and
// the stats probe.
inline constexpr std::size_t kDaemonShards = 2;
inline constexpr std::size_t kFeeders = 2;
inline constexpr double kProbePeriodMs = 5.0;

const std::vector<std::string>& workload_names();
/// One-line reason the workload exists.
std::string workload_why(const std::string& name);

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double phase_s = kDefaultPhaseS;
  /// ~2 s phases and tiny prints: the ctest smoke configuration.
  bool smoke = false;
  /// Scratch directory for the socket, checkpoints and traces.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end
  std::map<std::string, Metric> layers;   ///< per-layer (traced runs)
  std::vector<std::string> failures;      ///< failed checks, human-readable
  json::Value notes = json::Value::object();  ///< observations

  void fail(const std::string& what) {
    correct = false;
    if (failures.size() < 20) failures.push_back(what);
  }
  /// Stores end-to-end metric `name` as raw * scale.  A timed metric passes
  /// 1 / slowdown (times) or slowdown (rates) of the run's HostSpeed; its
  /// raw value is kept in notes.raw_metrics.
  void put(const std::string& name, double raw, std::size_t samples,
           double scale = 1.0);
};

// --- Generated data ---------------------------------------------------------

/// One printer kind's calibrated channel set and its pool of observed
/// prints, all simulated by eval::Dataset from one seed.
struct KindData {
  nsync::eval::PrinterKind kind = nsync::eval::PrinterKind::kUm3;
  std::vector<nsync::sensors::SideChannel> channels;
  std::vector<std::string> names;
  std::vector<Signal> references;
  std::vector<nsync::core::NsyncConfig> configs;
  std::vector<nsync::core::Thresholds> thresholds;
  /// WeightedPolicy fitted on the training prints' channel scores.
  std::shared_ptr<const nsync::core::FusionPolicy> weighted;
  std::vector<std::vector<Signal>> train;  ///< [print][channel]
  std::vector<std::vector<Signal>> benign;
  /// Table I attacks in all_attacks() order: Void, InfillGrid, Speed095,
  /// Layer03, Scale095.
  std::vector<std::vector<Signal>> attacked;

  [[nodiscard]] double min_duration_s() const;
};

struct KindRequest {
  nsync::eval::PrinterKind kind;
  std::vector<nsync::sensors::SideChannel> channels;
  std::size_t layers = 6;  ///< printed layers (0.2 mm each): sets print length
  std::size_t train = 4;
  std::size_t benign = 4;  ///< benign pool; the pool also holds 5 attacks
  bool fit = true;  ///< learn thresholds + weighted policy
};

/// Simulates and calibrates one kind.  Generation runs on the runtime
/// pool; the caller sizes it.
[[nodiscard]] KindData build_kind(const KindRequest& req, std::uint64_t seed);

/// Spec of one session of `k` (references, configs, thresholds).
[[nodiscard]] nsync::engine::SessionSpec make_spec(
    const KindData& k, std::string name, std::string model,
    std::shared_ptr<const nsync::core::FusionPolicy> policy);

/// Frames of one FEED block of `seconds` for every channel of `k`.
[[nodiscard]] std::vector<std::size_t> block_frames(const KindData& k,
                                                    double seconds);

}  // namespace bench

#endif  // BENCH_E2E_WORKLOADS_HPP
