// Per-device baseline registry with drift-adaptive OCC thresholds.
//
// The paper learns one set of OCC thresholds from benign training prints
// (Section VII-C, Eq. 26-28) and holds them fixed.  A production fleet
// drifts: mechanical wear, ambient temperature and firmware updates shift
// the benign feature distribution per device, so a global fixed threshold
// bleeds FPR or TPR over time.  This module is the fleet's calibration
// memory:
//
//   * Baselines are keyed by printer-model x sensor-profile (the channel
//     name): one ACC baseline for every "mk3" printer, a separate one for
//     its AUD channel, a separate pair for "mk4".
//   * resolve() serves the current adapted thresholds at session
//     admission; the first contact for a key seeds both the *anchor*
//     (factory calibration, immutable) and the current thresholds from
//     the caller's trained values.
//   * fold() ingests one finished print's benign feature maxima and
//     incrementally re-learns the thresholds (Eq. 26-28 over a sliding
//     ring of recent benign prints).
//
// Anti-poisoning is structural, not best-effort:
//
//   1. Eligibility gate — the caller folds with eligible=false whenever
//      the session's fused verdict was non-benign or any channel ended
//      non-healthy; ineligible folds only bump a `frozen` counter and
//      never touch statistics.  (Upstream, RealtimeMonitor additionally
//      accumulates its benign maxima only over valid windows on a healthy
//      channel with no latched intrusion.)
//   2. Minimum dwell — thresholds do not move at all until `min_prints`
//      eligible prints have been folded for the key.
//   3. Bounded step — one fold moves each threshold component at most
//      `max_step` (relative) toward the re-learned target.
//   4. Drift envelope — the adapted thresholds are clamped to
//      [anchor, anchor*(1+max_drift)] above the immutable anchor; they
//      never adapt *below* the factory calibration (the features are
//      nonnegative magnitudes drift can only inflate, so loosening is the
//      only legitimate direction).  An adversary feeding slowly-escalating
//      "benign" prints can drag the threshold to the envelope edge but
//      never past it, so a slow-drift attack eventually crosses the
//      (bounded) threshold — the adversarial test in
//      tests/test_baseline_registry.cpp pins this.
//
// Persistence: the registry serializes into its own "NBRG" section with
// an independent format version, written once as a field list that
// save_state and restore_state both run (signal/fields.hpp).  Keys are
// stored in strictly ascending (model, profile) order, the only order
// restore accepts, so one registry has exactly one encoding.  The section
// embeds into fleet checkpoints (crash consistency) and round-trips
// standalone `.nbrg` files via the atomic NCKP container
// (write_checkpoint_file) for operator-visible per-device state.
#ifndef NSYNC_ENGINE_BASELINE_REGISTRY_HPP
#define NSYNC_ENGINE_BASELINE_REGISTRY_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/discriminator.hpp"

namespace nsync::signal {
class ByteWriter;
class ByteReader;
}  // namespace nsync::signal

namespace nsync::engine {

/// Knobs of the incremental re-learning loop.
struct AdaptationPolicy {
  /// Sliding ring of recent eligible prints the thresholds are re-learned
  /// from (Eq. 26-28 over this window).
  std::size_t history = 8;
  /// Minimum eligible prints folded before thresholds move at all (dwell).
  std::size_t min_prints = 3;
  /// Per-fold bound on each threshold component's relative movement
  /// toward the re-learned target.
  double max_step = 0.10;
  /// Total drift envelope: current stays within
  /// [anchor, anchor*(1+max_drift)].  One-sided because the features are
  /// nonnegative magnitudes drift can only inflate — the baseline never
  /// adapts below the factory calibration.
  double max_drift = 0.5;
  /// OCC margin used when re-learning (Eq. 28's r).
  double r = 0.3;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;
};

/// One printer-model x sensor-profile baseline.
struct DeviceBaseline {
  core::Thresholds anchor;   ///< factory calibration; never moves
  core::Thresholds current;  ///< served thresholds (adapted)
  /// Recent eligible prints' benign feature maxima, oldest first.
  std::vector<core::FeatureMaxima> recent;
  std::uint64_t prints = 0;  ///< eligible folds accepted, ever
  std::uint64_t frozen = 0;  ///< ineligible folds rejected, ever
};

class BaselineRegistry {
 public:
  explicit BaselineRegistry(AdaptationPolicy policy = {});

  BaselineRegistry(const BaselineRegistry& other);
  BaselineRegistry& operator=(const BaselineRegistry&) = delete;

  /// Returns the thresholds to arm for (model, profile).  First contact
  /// seeds the baseline: `trained` becomes both the immutable anchor and
  /// the initial current thresholds.  Later calls ignore `trained` and
  /// serve the adapted state.
  core::Thresholds resolve(const std::string& model,
                           const std::string& profile,
                           const core::Thresholds& trained);

  /// Folds one finished print's benign feature maxima into (model,
  /// profile).  `eligible` is the session-level anti-poisoning gate: pass
  /// true only when the fused verdict stayed benign AND every channel
  /// ended healthy.  Returns true when the fold was accepted (eligible
  /// and the key exists); ineligible folds bump `frozen` and change
  /// nothing else.  Throws std::out_of_range for a key never resolved.
  bool fold(const std::string& model, const std::string& profile,
            const core::FeatureMaxima& maxima, bool eligible);

  /// Throws std::out_of_range for an unknown key.
  [[nodiscard]] DeviceBaseline baseline(const std::string& model,
                                        const std::string& profile) const;
  /// All (model, profile) keys, sorted (deterministic enumeration).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> keys() const;
  /// Bumped by every call that changes the serialized state (a first-
  /// contact resolve, any fold, restore_state), so callers can
  /// tell whether an exported copy is stale without comparing bytes.
  [[nodiscard]] std::uint64_t generation() const;

  /// Serializes the registry as an "NBRG" section (id, length, payload
  /// with its own format version) through the checkpoint codec.
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state.  Throws CheckpointError:
  /// kBadVersion on a format bump, kMismatch when the serialized policy
  /// differs from this registry's, kCorrupt/kTruncated on malformed
  /// payloads (keys not strictly ascending among them).  On throw this
  /// registry is unchanged.
  void restore_state(nsync::signal::ByteReader& r);

  /// Atomically writes the registry to `path` inside the NCKP container.
  void save(const std::string& path) const;
  /// Loads a registry written by save().  Throws CheckpointError.
  [[nodiscard]] static BaselineRegistry load(const std::string& path,
                                             AdaptationPolicy policy = {});

 private:
  using Key = std::pair<std::string, std::string>;

  static void fold_locked(DeviceBaseline& b, const AdaptationPolicy& policy,
                          const core::FeatureMaxima& maxima);
  template <class Io>
  void fields(Io& io, auto& entries) const;

  AdaptationPolicy policy_;
  mutable std::mutex mu_;
  // std::map: sorted iteration makes serialization byte-stable across
  // insertion orders, which the bitwise crash-replay tests rely on.
  std::map<Key, DeviceBaseline> baselines_;
  std::uint64_t generation_ = 0;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_BASELINE_REGISTRY_HPP
