#include "engine/baseline_registry.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <stdexcept>

#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"

namespace nsync::engine {

using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::FieldReader;
using nsync::signal::FieldWriter;

namespace {

// 'N','B','R','G' little-endian.
constexpr std::uint32_t kSecBaselineRegistry = 0x4752424E;
// Format version of the NBRG payload, independent of the NCKP container
// version — bump on any layout change.
constexpr std::uint32_t kFormatVersion = 1;

[[nodiscard]] bool thresholds_ok(const core::Thresholds& t) {
  return std::isfinite(t.c_c) && t.c_c >= 0.0 && std::isfinite(t.h_c) &&
         t.h_c >= 0.0 && std::isfinite(t.v_c) && t.v_c >= 0.0;
}

[[nodiscard]] bool maxima_ok(const core::FeatureMaxima& m) {
  return std::isfinite(m.c_max) && m.c_max >= 0.0 && std::isfinite(m.h_max) &&
         m.h_max >= 0.0 && std::isfinite(m.v_max) && m.v_max >= 0.0;
}

/// One component's bounded move toward the re-learned target: at most
/// `max_step` relative movement per fold, clamped to the anchor's drift
/// envelope.  The envelope is one-sided — [anchor, anchor*(1+max_drift)]
/// — because the features are nonnegative magnitudes that sensor drift
/// can only inflate: adapting *below* the factory calibration would
/// tighten sensitivity on the strength of a small, noisy window of
/// recent maxima and buy false positives for nothing.  An anchor
/// component of 0 pins the component at 0 (the envelope is empty), which
/// is the safe direction for a threshold.
[[nodiscard]] double step_component(double current, double target,
                                    double anchor,
                                    const AdaptationPolicy& policy) {
  const double bound =
      policy.max_step * std::max(std::abs(current), std::abs(anchor));
  double next = std::clamp(target, current - bound, current + bound);
  next = std::clamp(next, anchor, anchor * (1.0 + policy.max_drift));
  return next;
}

}  // namespace

void AdaptationPolicy::validate() const {
  if (history == 0) {
    throw std::invalid_argument("AdaptationPolicy: history must be >= 1");
  }
  if (min_prints == 0) {
    throw std::invalid_argument("AdaptationPolicy: min_prints must be >= 1");
  }
  if (!(max_step > 0.0) || !(max_step <= 1.0)) {
    throw std::invalid_argument(
        "AdaptationPolicy: max_step must be in (0, 1]");
  }
  if (!std::isfinite(max_drift) || max_drift < 0.0) {
    throw std::invalid_argument(
        "AdaptationPolicy: max_drift must be finite and >= 0");
  }
  if (!std::isfinite(r) || r < 0.0) {
    throw std::invalid_argument("AdaptationPolicy: r must be finite and >= 0");
  }
}

BaselineRegistry::BaselineRegistry(AdaptationPolicy policy)
    : policy_(policy) {
  policy_.validate();
}

BaselineRegistry::BaselineRegistry(const BaselineRegistry& other)
    : policy_(other.policy_) {
  const std::scoped_lock lock(other.mu_);
  baselines_ = other.baselines_;
}

core::Thresholds BaselineRegistry::resolve(const std::string& model,
                                           const std::string& profile,
                                           const core::Thresholds& trained) {
  if (!thresholds_ok(trained)) {
    throw std::invalid_argument(
        "BaselineRegistry::resolve: thresholds must be finite and >= 0");
  }
  const std::scoped_lock lock(mu_);
  auto [it, inserted] = baselines_.try_emplace(Key{model, profile});
  if (inserted) {
    it->second.anchor = trained;
    it->second.current = trained;
    ++generation_;
  }
  return it->second.current;
}

bool BaselineRegistry::fold(const std::string& model,
                            const std::string& profile,
                            const core::FeatureMaxima& maxima,
                            bool eligible) {
  const std::scoped_lock lock(mu_);
  auto it = baselines_.find(Key{model, profile});
  if (it == baselines_.end()) {
    throw std::out_of_range("BaselineRegistry::fold: unknown baseline " +
                            model + "/" + profile);
  }
  ++generation_;
  if (!eligible || !maxima_ok(maxima)) {
    ++it->second.frozen;
    return false;
  }
  fold_locked(it->second, policy_, maxima);
  return true;
}

void BaselineRegistry::fold_locked(DeviceBaseline& b,
                                   const AdaptationPolicy& policy,
                                   const core::FeatureMaxima& maxima) {
  b.recent.push_back(maxima);
  if (b.recent.size() > policy.history) {
    b.recent.erase(b.recent.begin());
  }
  ++b.prints;
  // Dwell: no movement until enough eligible prints vouch for the device.
  if (b.prints < policy.min_prints) return;
  const core::Thresholds target =
      core::learn_thresholds(std::span<const core::FeatureMaxima>(b.recent),
                             policy.r);
  b.current.c_c = step_component(b.current.c_c, target.c_c, b.anchor.c_c,
                                 policy);
  b.current.h_c = step_component(b.current.h_c, target.h_c, b.anchor.h_c,
                                 policy);
  b.current.v_c = step_component(b.current.v_c, target.v_c, b.anchor.v_c,
                                 policy);
}

DeviceBaseline BaselineRegistry::baseline(const std::string& model,
                                          const std::string& profile) const {
  const std::scoped_lock lock(mu_);
  auto it = baselines_.find(Key{model, profile});
  if (it == baselines_.end()) {
    throw std::out_of_range("BaselineRegistry::baseline: unknown baseline " +
                            model + "/" + profile);
  }
  return it->second;
}

std::vector<std::pair<std::string, std::string>> BaselineRegistry::keys()
    const {
  const std::scoped_lock lock(mu_);
  std::vector<Key> out;
  out.reserve(baselines_.size());
  for (const auto& [key, unused] : baselines_) out.push_back(key);
  return out;
}

std::uint64_t BaselineRegistry::generation() const {
  const std::scoped_lock lock(mu_);
  return generation_;
}

// The NBRG section: format version | policy fingerprint | u64 key count |
// per key (ascending): model | profile | anchor | current | prints |
// frozen | u64 ring length | recent maxima, oldest first.  `entries` is the
// live map, or a vector of (key, baseline) pairs to validate.
template <class Io>
void BaselineRegistry::fields(Io& io, auto& entries) const {
  io.section(kSecBaselineRegistry, [&](auto& s) {
    std::uint32_t version = kFormatVersion;
    s.pod(version);
    if (version != kFormatVersion) {
      throw CheckpointError(CheckpointErrorKind::kBadVersion,
                            "BaselineRegistry: format version " +
                                std::to_string(version) + ", expected " +
                                std::to_string(kFormatVersion));
    }
    // Policy fingerprint.
    s.expect(policy_.history, "BaselineRegistry history");
    s.expect(policy_.min_prints, "BaselineRegistry min_prints");
    s.expect(policy_.max_step, "BaselineRegistry max_step");
    s.expect(policy_.max_drift, "BaselineRegistry max_drift");
    s.expect(policy_.r, "BaselineRegistry r");
    s.list(entries, "BaselineRegistry key count", [&](auto& e) {
      s.str(e.first.first);
      s.str(e.first.second);
      auto& b = e.second;
      core::thresholds_fields(s, b.anchor);
      core::thresholds_fields(s, b.current);
      s.pod(b.prints);
      s.pod(b.frozen);
      s.list(b.recent, "BaselineRegistry ring length",
             [&](auto& m) { core::maxima_fields(s, m); });
    });
  });
}

void BaselineRegistry::save_state(ByteWriter& w) const {
  const std::scoped_lock lock(mu_);
  FieldWriter io(w);
  fields(io, baselines_);
}

void BaselineRegistry::restore_state(ByteReader& r) {
  std::vector<std::pair<Key, DeviceBaseline>> entries;
  FieldReader io(r);
  fields(io, entries);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, b] = entries[i];
    // Strictly ascending keys: the one encoding save_state writes, which
    // also rules out duplicates.
    if (i > 0 && !(entries[i - 1].first < key)) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "BaselineRegistry: keys out of order at " +
                                key.first + "/" + key.second);
    }
    if (!thresholds_ok(b.anchor) || !thresholds_ok(b.current) ||
        b.recent.size() > policy_.history || b.recent.size() > b.prints ||
        !std::ranges::all_of(b.recent, maxima_ok)) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "BaselineRegistry: implausible baseline for " +
                                key.first + "/" + key.second);
    }
  }
  std::map<Key, DeviceBaseline> loaded(
      std::make_move_iterator(entries.begin()),
      std::make_move_iterator(entries.end()));

  const std::scoped_lock lock(mu_);
  baselines_ = std::move(loaded);
  ++generation_;
}

void BaselineRegistry::save(const std::string& path) const {
  ByteWriter w;
  save_state(w);
  nsync::signal::write_checkpoint_file(path, w.data());
}

BaselineRegistry BaselineRegistry::load(const std::string& path,
                                        AdaptationPolicy policy) {
  const std::vector<std::uint8_t> payload =
      nsync::signal::read_checkpoint_file(path);
  BaselineRegistry reg(policy);
  ByteReader r(payload);
  reg.restore_state(r);
  r.finish();
  return reg;
}

}  // namespace nsync::engine
