// Per-channel health tracking for graceful degradation.
//
// The validity mask produced by the synchronizer/comparator says whether
// each *window* was usable (finite, non-degenerate).  This module turns
// that per-window stream into a per-channel operational state with
// hysteresis, so the detector layer (RealtimeMonitor, FusionIds) can keep
// detecting on the surviving channels when one sensor degrades or goes
// dark, instead of letting a single faulty stream poison the verdict.
//
//   healthy --(invalid fraction over recent history)--> degraded
//   degraded --(consecutive invalid windows)----------> offline
//   offline --(consecutive valid windows)-------------> degraded
//   degraded --(consecutive valid windows, stricter)---> healthy
//
// Recovery always steps down one level at a time and demands a longer
// clean streak than the demotion did (hysteresis), so a flapping sensor
// settles in `degraded` rather than oscillating.
#ifndef NSYNC_CORE_HEALTH_HPP
#define NSYNC_CORE_HEALTH_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nsync::signal {
class ByteWriter;
class ByteReader;
}  // namespace nsync::signal

namespace nsync::core {

enum class ChannelHealth {
  kHealthy,   ///< validity within normal bounds
  kDegraded,  ///< elevated invalid-window fraction; verdicts still used
  kOffline,   ///< sustained invalid stream; excluded from fusion votes
};

[[nodiscard]] std::string channel_health_name(ChannelHealth h);

struct HealthPolicy {
  /// Sliding history length (windows) for the invalid-fraction estimate.
  std::size_t history = 32;
  /// Invalid fraction over `history` that demotes healthy -> degraded.
  /// The demotion is gated until a full history has been observed, so a
  /// single invalid window early in a stream (1 of 2 observed = 50%)
  /// cannot flap the channel during warm-up; the consecutive-invalid
  /// offline rule still applies from the first window.
  double degraded_fraction = 0.25;
  /// Consecutive invalid windows that force any state -> offline.
  std::size_t offline_consecutive = 12;
  /// Consecutive valid windows required to recover one level (offline ->
  /// degraded, and degraded -> healthy once the fraction also clears
  /// degraded_fraction / 2).
  std::size_t recovery_consecutive = 16;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;
};

/// Streaming state machine: feed one observe(valid) per processed window.
class ChannelHealthMonitor {
 public:
  explicit ChannelHealthMonitor(HealthPolicy policy = {});

  /// Updates the state with the validity of the next window and returns
  /// the state after the update.
  ChannelHealth observe(bool valid);

  [[nodiscard]] ChannelHealth state() const { return state_; }
  /// Invalid fraction over the retained history (0 before any window).
  [[nodiscard]] double invalid_fraction() const;
  /// Windows observed so far.
  [[nodiscard]] std::size_t observed() const { return observed_; }
  /// Current run of consecutive valid windows (the recovery-hysteresis
  /// counter; exposed so restore-equivalence tests can assert the streak
  /// resumed rather than reset).
  [[nodiscard]] std::size_t valid_streak() const { return valid_streak_; }

  /// Serializes the state machine — state, sliding history, hysteresis
  /// streaks, lifetime counters (checkpointing).
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state.  Throws CheckpointError:
  /// kMismatch when the serialized policy differs from this monitor's,
  /// kCorrupt on malformed state.
  void restore_state(nsync::signal::ByteReader& r);

 private:
  /// The one field list of the persisted state (signal/fields.hpp); `Self`
  /// is const for encoding.
  template <class Io, class Self>
  static void fields(Io& io, Self& m);

  HealthPolicy policy_;
  ChannelHealth state_ = ChannelHealth::kHealthy;
  std::vector<std::uint8_t> history_;  // circular buffer of validity bits
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t invalid_in_history_ = 0;
  std::size_t invalid_streak_ = 0;
  std::size_t valid_streak_ = 0;
  std::size_t observed_ = 0;
  std::size_t invalid_total_ = 0;
};

/// Replays a whole validity mask (e.g. Analysis::valid from a batch
/// detection) through a fresh monitor and returns the final state.
[[nodiscard]] ChannelHealth replay_health(
    const std::vector<std::uint8_t>& valid, const HealthPolicy& policy = {});

}  // namespace nsync::core

#endif  // NSYNC_CORE_HEALTH_HPP
