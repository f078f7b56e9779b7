#include "core/health.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"

namespace nsync::core {

std::string channel_health_name(ChannelHealth h) {
  switch (h) {
    case ChannelHealth::kHealthy: return "healthy";
    case ChannelHealth::kDegraded: return "degraded";
    case ChannelHealth::kOffline: return "offline";
  }
  return "unknown";
}

void HealthPolicy::validate() const {
  if (history == 0) {
    throw std::invalid_argument("HealthPolicy: history must be >= 1");
  }
  if (degraded_fraction <= 0.0 || degraded_fraction > 1.0) {
    throw std::invalid_argument(
        "HealthPolicy: degraded_fraction must be in (0, 1]");
  }
  if (offline_consecutive == 0 || recovery_consecutive == 0) {
    throw std::invalid_argument(
        "HealthPolicy: streak lengths must be >= 1");
  }
}

ChannelHealthMonitor::ChannelHealthMonitor(HealthPolicy policy)
    : policy_(policy) {
  policy_.validate();
  history_.assign(policy_.history, 1);
}

double ChannelHealthMonitor::invalid_fraction() const {
  if (filled_ == 0) return 0.0;
  return static_cast<double>(invalid_in_history_) /
         static_cast<double>(filled_);
}

ChannelHealth ChannelHealthMonitor::observe(bool valid) {
  ++observed_;
  if (!valid) ++invalid_total_;

  // Circular history update.
  if (filled_ == history_.size()) {
    if (history_[head_] == 0) --invalid_in_history_;
  } else {
    ++filled_;
  }
  history_[head_] = valid ? 1 : 0;
  if (!valid) ++invalid_in_history_;
  head_ = (head_ + 1) % history_.size();

  if (valid) {
    ++valid_streak_;
    invalid_streak_ = 0;
  } else {
    ++invalid_streak_;
    valid_streak_ = 0;
  }

  // Demotions first: a sustained invalid streak always wins.
  if (invalid_streak_ >= policy_.offline_consecutive) {
    state_ = ChannelHealth::kOffline;
    return state_;
  }
  // The fraction-based demotion waits for a full history window: during
  // warm-up `invalid_fraction()` divides by `filled_`, so one invalid
  // window out of two observed would read as 50% and flap the channel to
  // degraded seconds into a stream.  Sustained failures still demote via
  // the streak rule above regardless of warm-up.
  if (state_ == ChannelHealth::kHealthy && filled_ == history_.size() &&
      invalid_fraction() >= policy_.degraded_fraction) {
    state_ = ChannelHealth::kDegraded;
    return state_;
  }

  // Recovery: one level per clean streak, with a stricter bar for the
  // final step back to healthy (hysteresis).
  if (state_ == ChannelHealth::kOffline &&
      valid_streak_ >= policy_.recovery_consecutive) {
    state_ = ChannelHealth::kDegraded;
    valid_streak_ = 0;  // the next level costs a fresh streak
    return state_;
  }
  if (state_ == ChannelHealth::kDegraded &&
      valid_streak_ >= policy_.recovery_consecutive &&
      invalid_fraction() < policy_.degraded_fraction / 2.0) {
    state_ = ChannelHealth::kHealthy;
  }
  return state_;
}

template <class Io, class Self>
void ChannelHealthMonitor::fields(Io& io, Self& m) {
  // Policy fingerprint.
  io.expect(m.policy_.history, "ChannelHealthMonitor history");
  io.expect(m.policy_.degraded_fraction,
            "ChannelHealthMonitor degraded fraction");
  io.expect(m.policy_.offline_consecutive,
            "ChannelHealthMonitor offline streak");
  io.expect(m.policy_.recovery_consecutive,
            "ChannelHealthMonitor recovery streak");

  io.template enumeration<std::uint8_t>(m.state_, ChannelHealth::kHealthy,
                                        ChannelHealth::kOffline,
                                        "ChannelHealthMonitor state");
  io.flags(m.history_, "ChannelHealthMonitor history bit");
  io.pod(m.head_);
  io.pod(m.filled_);
  io.pod(m.invalid_in_history_);
  io.pod(m.invalid_streak_);
  io.pod(m.valid_streak_);
  io.pod(m.observed_);
  io.pod(m.invalid_total_);
}

void ChannelHealthMonitor::save_state(nsync::signal::ByteWriter& w) const {
  nsync::signal::FieldWriter io(w);
  fields(io, *this);
}

void ChannelHealthMonitor::restore_state(nsync::signal::ByteReader& r) {
  ChannelHealthMonitor m(policy_);
  nsync::signal::FieldReader io(r);
  fields(io, m);
  if (m.history_.size() != history_.size() || m.head_ >= m.history_.size() ||
      m.filled_ > m.history_.size() || m.invalid_in_history_ > m.filled_ ||
      m.filled_ > m.observed_ || m.invalid_total_ > m.observed_ ||
      m.invalid_in_history_ > m.invalid_total_ ||
      std::max(m.valid_streak_, m.invalid_streak_) > m.observed_) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "ChannelHealthMonitor: inconsistent counters");
  }
  *this = std::move(m);
}

ChannelHealth replay_health(const std::vector<std::uint8_t>& valid,
                            const HealthPolicy& policy) {
  ChannelHealthMonitor m(policy);
  for (std::uint8_t v : valid) m.observe(v != 0);
  return m.state();
}

}  // namespace nsync::core
