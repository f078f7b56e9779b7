#include "engine/frame_queue.hpp"

#include <algorithm>
#include <utility>

namespace nsync::engine {

FrameQueue::FrameQueue(std::size_t capacity_frames, OverflowPolicy policy)
    : capacity_frames_(capacity_frames), policy_(policy) {}

FrameQueue::PushResult FrameQueue::push(FrameBatch batch) {
  const std::size_t frames =
      batch.kind == FrameBatch::Kind::kFeed ? batch.frames.frames() : 0;
  std::unique_lock lock(mu_);
  PushResult result;
  auto would_overflow = [&] {
    return capacity_frames_ > 0 && !items_.empty() &&
           queued_frames_ + frames > capacity_frames_;
  };
  if (closed_) {
    stats_.closed_frames += frames;
    ++stats_.closed_batches;
    result.queued_frames = queued_frames_;
    return result;
  }
  if (would_overflow()) {
    switch (policy_) {
      case OverflowPolicy::kBlock:
        cv_space_.wait(lock, [&] { return closed_ || !would_overflow(); });
        if (closed_) {
          stats_.closed_frames += frames;
          ++stats_.closed_batches;
          result.queued_frames = queued_frames_;
          return result;
        }
        break;
      case OverflowPolicy::kDropOldest:
        // Shed the oldest *feed* batches until the newcomer fits; evict
        // commands are control flow and survive (they are 0 frames, so
        // they never contribute to the overflow anyway).
        for (auto it = items_.begin();
             it != items_.end() && would_overflow();) {
          if (it->kind != FrameBatch::Kind::kFeed) {
            ++it;
            continue;
          }
          const std::size_t dead = it->frames.frames();
          queued_frames_ -= dead;
          result.shed_frames += dead;
          stats_.shed_frames += dead;
          ++stats_.shed_batches;
          it = items_.erase(it);
        }
        break;
      case OverflowPolicy::kReject:
        stats_.rejected_frames += frames;
        ++stats_.rejected_batches;
        result.queued_frames = queued_frames_;
        return result;
    }
  }
  queued_frames_ += frames;
  stats_.enqueued_frames += frames;
  ++stats_.enqueued_batches;
  stats_.peak_queued_frames =
      std::max(stats_.peak_queued_frames, queued_frames_);
  items_.push_back(std::move(batch));
  result.accepted = true;
  result.queued_frames = queued_frames_;
  lock.unlock();
  cv_items_.notify_one();
  return result;
}

bool FrameQueue::pop_all(std::vector<FrameBatch>& out) {
  out.clear();
  std::unique_lock lock(mu_);
  cv_items_.wait(lock, [&] { return closed_ || !items_.empty(); });
  if (items_.empty()) return false;  // closed and drained
  out.reserve(items_.size());
  for (auto& b : items_) out.push_back(std::move(b));
  items_.clear();
  queued_frames_ = 0;
  in_flight_ = true;
  lock.unlock();
  // All blocked producers may now fit.
  cv_space_.notify_all();
  return true;
}

void FrameQueue::mark_processed() {
  {
    const std::scoped_lock lock(mu_);
    in_flight_ = false;
  }
  cv_idle_.notify_all();
}

void FrameQueue::close() {
  {
    const std::scoped_lock lock(mu_);
    closed_ = true;
  }
  cv_items_.notify_all();
  cv_space_.notify_all();
  cv_idle_.notify_all();
}

std::size_t FrameQueue::discard_pending() {
  std::size_t dropped = 0;
  {
    const std::scoped_lock lock(mu_);
    for (const FrameBatch& b : items_) {
      if (b.kind == FrameBatch::Kind::kFeed) dropped += b.frames.frames();
    }
    items_.clear();
    queued_frames_ = 0;
  }
  cv_space_.notify_all();
  cv_idle_.notify_all();
  return dropped;
}

void FrameQueue::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [&] {
    return (items_.empty() && !in_flight_) || closed_;
  });
}

FrameQueueStats FrameQueue::stats() const {
  const std::scoped_lock lock(mu_);
  FrameQueueStats s = stats_;
  s.queued_frames = queued_frames_;
  s.queued_batches = items_.size();
  s.in_flight = in_flight_;
  return s;
}

}  // namespace nsync::engine
