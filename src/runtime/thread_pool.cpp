#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <latch>
#include <memory>
#include <utility>

namespace nsync::runtime {

namespace {

// Set while a thread is executing inside a pool's worker_loop; used to run
// nested parallel_for calls inline instead of deadlocking on the queue.
thread_local const ThreadPool* current_pool_ = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : workers_(std::max<std::size_t>(1, workers)) {
  if (workers_ <= 1) return;
  threads_.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  current_pool_ = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() const { return current_pool_ == this; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Inline paths: single worker, a single iteration, or a nested call
  // issued from one of our own workers (enqueuing would risk deadlock).
  if (threads_.empty() || n == 1 || on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    std::size_t end;
    const std::function<void(std::size_t)>* body;
  };
  Shared shared;
  shared.next.store(begin, std::memory_order_relaxed);
  shared.end = end;
  shared.body = &body;

  auto drain = [&shared] {
    for (;;) {
      if (shared.failed.load(std::memory_order_relaxed)) return;
      const std::size_t i =
          shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared.end) return;
      try {
        (*shared.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.error_mu);
        if (!shared.error) shared.error = std::current_exception();
        shared.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t helpers = std::min(workers_, n - 1);
  std::latch done(static_cast<std::ptrdiff_t>(helpers));
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([&drain, &done] {
      drain();
      done.count_down();
    });
  }
  drain();  // the calling thread participates
  done.wait();
  if (shared.error) std::rethrow_exception(shared.error);
}

std::size_t default_worker_count() {
  if (const char* env = std::getenv("NSYNC_THREADS")) {
    char* parse_end = nullptr;
    const unsigned long long v = std::strtoull(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && v >= 1) {
      return static_cast<std::size_t>(std::min(v, 256ULL));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

std::mutex global_mu_;
std::unique_ptr<ThreadPool> global_pool_;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(global_mu_);
  if (!global_pool_) {
    global_pool_ = std::make_unique<ThreadPool>(default_worker_count());
  }
  return *global_pool_;
}

void set_worker_count(std::size_t workers) {
  const std::size_t n = workers == 0 ? default_worker_count() : workers;
  std::lock_guard<std::mutex> lock(global_mu_);
  if (global_pool_ && global_pool_->workers() == n) return;
  global_pool_.reset();  // join the old pool before replacing it
  global_pool_ = std::make_unique<ThreadPool>(n);
}

}  // namespace nsync::runtime
