// Parallel execution runtime for the evaluation pipeline.
//
// A fixed-size thread pool (no work stealing — a shared queue with an
// atomic iteration counter is plenty for the coarse-grained tasks this
// codebase runs) plus `parallel_for` / `parallel_transform` helpers.
//
// Design rules the rest of the codebase relies on:
//  * Determinism: helpers only decide *which thread* runs iteration i,
//    never *what* iteration i computes.  Callers write results into
//    per-index slots, so outputs are bitwise identical at any worker
//    count, including 1.
//  * Exception propagation: the first exception thrown by a body is
//    rethrown on the calling thread after all claimed iterations finish;
//    remaining unclaimed iterations are abandoned.
//  * Nesting safety: a `parallel_for` issued from inside a pool worker
//    runs its body inline on that worker (no new tasks are enqueued), so
//    nested parallelism can never deadlock the pool.
//  * Worker count 1 (or a 0/1-iteration range) executes inline with no
//    synchronization at all.
//
// The global pool is sized from `NSYNC_THREADS` when set (clamped to
// [1, 256]), otherwise from std::thread::hardware_concurrency().
// `set_worker_count()` overrides both (0 restores the automatic sizing).
#ifndef NSYNC_RUNTIME_THREAD_POOL_HPP
#define NSYNC_RUNTIME_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nsync::runtime {

/// Fixed-size thread pool.  Tasks are plain `void()` callables consumed
/// FIFO by `workers()` threads.  A pool with `workers <= 1` spawns no
/// threads; `submit` then runs the task inline.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is treated as 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Enqueues a task.  Never blocks (unbounded queue).  Tasks must not
  /// throw — wrap bodies that can throw (parallel_for does this).
  void submit(std::function<void()> task);

  /// Runs body(i) for i in [begin, end) across the pool, blocking until
  /// every claimed iteration has finished.  The calling thread
  /// participates.  Rethrows the first exception a body threw.  Safe to
  /// call from inside a pool task (runs inline there).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// True when the current thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

 private:
  void worker_loop();

  std::size_t workers_ = 1;
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Worker count the automatic sizing would pick: NSYNC_THREADS when set
/// and parseable (clamped to [1, 256]), otherwise hardware_concurrency()
/// (at least 1).
[[nodiscard]] std::size_t default_worker_count();

/// Overrides the global pool size; 0 restores automatic sizing.  Takes
/// effect immediately (the previous pool is drained and joined).  Not
/// meant to be called concurrently with parallel work — call it from
/// main() before the pipeline starts, as the bench binaries do.
void set_worker_count(std::size_t workers);

/// The process-wide pool used by the free-function helpers below.
[[nodiscard]] ThreadPool& global_pool();

/// parallel_for over the global pool.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body) {
  global_pool().parallel_for(begin, end, body);
}

/// Maps fn over [0, n) into a vector, in parallel, preserving index
/// order (out[i] = fn(i)).  The element type must be default- and
/// move-constructible.  A bool-returning fn yields std::vector<char>
/// (std::vector<bool> packs bits, so concurrent per-index writes would
/// race); char converts back to bool implicitly at the use site.
template <typename Fn>
[[nodiscard]] auto parallel_transform(std::size_t n, Fn&& fn) {
  using Result = decltype(fn(std::size_t{0}));
  using Element = std::conditional_t<std::is_same_v<Result, bool>, char,
                                     Result>;
  std::vector<Element> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace nsync::runtime

#endif  // NSYNC_RUNTIME_THREAD_POOL_HPP
