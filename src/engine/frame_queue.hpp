// Bounded MPSC frame queue between ingest threads and a shard worker.
//
// Producers (socket readers, the in-process feed() API) enqueue owned
// frame batches; one shard worker drains them.  The consumer side is a
// single swap of the whole pending deque under the lock, so the critical
// section is O(1) regardless of backlog and producers contend only with
// each other's appends — "lock-free-ish" in effect if not in mechanism,
// and trivially order-preserving, which is what keeps shard verdicts
// bitwise identical to an unsharded engine (frames of one session are
// processed in exactly the feed order).
//
// Backpressure is explicit and accounted: the queue has a high-water mark
// in *frames* (batches vary in size) and one of three overflow policies:
//
//   kBlock      — producers wait for space; nothing is ever lost.  The
//                 default, and the only policy under which shard-count
//                 invariance of verdicts is guaranteed.
//   kDropOldest — load-shedding: the oldest queued feed batches are
//                 dropped until the new one fits (control batches such as
//                 evictions are never shed).  Keeps ingest latency flat
//                 past saturation at the cost of holes in the stream.
//   kReject     — the push fails and the caller gets the error (the wire
//                 protocol surfaces it as an OVERLOADED reply).
//
// Every outcome lands in FrameQueueStats, so the daemon's POLL_STATS can
// report exactly how much was queued, shed and rejected per shard.
//
// Wake-ups: a push normally signals the consumer at once.  A push with
// Wake::kDeferred enqueues under the lock like any other but leaves the
// signal owed; wake() pays it.  The fleet server uses this to write a
// read's replies before it wakes the shards those FEEDs went to.  A push
// that would overflow pays an owed wake before its policy acts, so a
// deferred backlog can never leave the consumer asleep on a full queue:
// kBlock does not wait forever, and kDropOldest/kReject shed or refuse
// only what the woken consumer could not drain in time.
#ifndef NSYNC_ENGINE_FRAME_QUEUE_HPP
#define NSYNC_ENGINE_FRAME_QUEUE_HPP

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::engine {

/// What happens when a push would exceed the queue's frame capacity.
enum class OverflowPolicy : std::uint8_t {
  kBlock = 0,
  kDropOldest = 1,
  kReject = 2,
};

/// One enqueued unit of work for a shard worker: a batch of frames for
/// one channel of one (shard-local) session, or a control command that
/// must stay ordered relative to the feeds around it — an eviction, or a
/// barrier that tells its waiter when everything queued before it has
/// been applied.
struct FrameBatch {
  enum class Kind : std::uint8_t { kFeed, kEvict, kBarrier };
  Kind kind = Kind::kFeed;
  std::size_t session = 0;  ///< shard-local session id
  std::string channel;
  nsync::signal::Signal frames;  ///< owned copy (kFeed only)
  std::chrono::steady_clock::time_point enqueued_at;
  /// kBarrier only: set once the batches queued before it are applied.
  /// A barrier dropped unapplied (backlog discarded at a shard failure)
  /// breaks the promise instead, which releases its waiter too.
  std::shared_ptr<std::promise<void>> reached;
};

struct FrameQueueStats {
  std::size_t queued_frames = 0;   ///< frames currently waiting
  std::size_t queued_batches = 0;  ///< batches currently waiting
  std::size_t peak_queued_frames = 0;
  std::uint64_t enqueued_frames = 0;  ///< accepted into the queue, ever
  std::uint64_t enqueued_batches = 0;
  std::uint64_t shed_frames = 0;  ///< dropped by kDropOldest, ever
  std::uint64_t shed_batches = 0;
  std::uint64_t rejected_frames = 0;  ///< refused by kReject overflow, ever
  std::uint64_t rejected_batches = 0;
  /// Refused because the queue was already closed (shutdown drain), ever.
  /// Tracked apart from rejected_* so POLL_STATS reject counters mean
  /// genuine overload, not phantom overload at every graceful drain.
  std::uint64_t closed_frames = 0;
  std::uint64_t closed_batches = 0;
  /// Consumer wake-ups signalled by pushes and wake(), ever.
  std::uint64_t wakeups = 0;
  bool in_flight = false;  ///< consumer is processing a popped batch
};

class FrameQueue {
 public:
  /// `capacity_frames` is the high-water mark; 0 means unbounded.
  FrameQueue(std::size_t capacity_frames, OverflowPolicy policy);

  struct PushResult {
    bool accepted = false;
    std::size_t shed_frames = 0;    ///< older frames dropped to make room
    std::size_t queued_frames = 0;  ///< backlog after the push
  };

  /// When a push signals the consumer: at once, or at the next wake().
  enum class Wake : std::uint8_t { kNow, kDeferred };

  /// Enqueues a batch according to the overflow policy.  A batch larger
  /// than the whole capacity is still accepted once the queue is empty
  /// (kBlock waits for that; the other policies apply their rule), so no
  /// single batch can wedge the queue.  Returns accepted=false only for
  /// kReject overflow or a closed queue.  With Wake::kDeferred the caller
  /// must call wake() once it is done pushing.
  PushResult push(FrameBatch batch, Wake wake = Wake::kNow);

  /// Signals the consumer if a deferred push still owes it a wake-up
  /// (a consumer that popped the batch since owes nothing).
  void wake();

  /// Blocks until at least one batch is available or the queue is closed;
  /// moves the entire backlog into `out` (cleared first) and marks the
  /// queue in-flight.  Returns false when the queue is closed and empty —
  /// the consumer's signal to exit.  The consumer must call
  /// mark_processed() after handling the popped batches.
  bool pop_all(std::vector<FrameBatch>& out);

  /// Consumer acknowledgment that the batches from the last pop_all have
  /// been fully processed (clears in_flight, wakes wait_idle callers).
  void mark_processed();

  /// Wakes all waiters; subsequent pushes are rejected, pop_all drains
  /// what is left and then returns false.
  void close();

  /// Blocks until the queue is empty, nothing is in flight, and every
  /// accepted batch has been acknowledged — the flush barrier.
  void wait_idle();

  /// Drops every queued batch without processing it and wakes blocked
  /// producers.  Supervision path: when a shard worker dies, the backlog
  /// behind the failure no longer aligns with the engine state it will be
  /// restored to, so it is discarded (and accounted by the caller) rather
  /// than replayed.  Returns the number of feed frames dropped.
  std::size_t discard_pending();

  [[nodiscard]] FrameQueueStats stats() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_items_;  ///< consumer waits for work
  std::condition_variable cv_space_;  ///< kBlock producers wait for room
  std::condition_variable cv_idle_;   ///< wait_idle waits for quiescence
  std::deque<FrameBatch> items_;
  std::size_t capacity_frames_;
  OverflowPolicy policy_;
  std::size_t queued_frames_ = 0;
  FrameQueueStats stats_{};
  bool in_flight_ = false;
  bool closed_ = false;
  bool wake_owed_ = false;  ///< a deferred push has not signalled yet
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_FRAME_QUEUE_HPP
