// Tests for the parallel execution runtime: ThreadPool scheduling,
// parallel_for / parallel_transform semantics, exception propagation,
// nesting safety and the NSYNC_THREADS-driven global pool sizing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace nsync::runtime {
namespace {

TEST(Runtime, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Runtime, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Runtime, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const auto main_id = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(0, seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, main_id);
}

TEST(Runtime, ZeroWorkerRequestIsTreatedAsOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
}

TEST(Runtime, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("body failed");
                          }
                        }),
      std::runtime_error);
}

TEST(Runtime, ExceptionMessageSurvives) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 8, [](std::size_t) {
      throw std::runtime_error("specific message");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "specific message");
  }
}

TEST(Runtime, PoolRemainsUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.parallel_for(0, 16, [&](std::size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 16);
}

TEST(Runtime, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.parallel_for(0, 8, [&](std::size_t outer) {
    pool.parallel_for(0, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(Runtime, ParallelTransformPreservesIndexOrder) {
  set_worker_count(4);
  const auto out =
      parallel_transform(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
  set_worker_count(0);
}

TEST(Runtime, ParallelTransformBoolUsesUnpackedStorage) {
  set_worker_count(4);
  const auto out =
      parallel_transform(100, [](std::size_t i) { return i % 3 == 0; });
  static_assert(std::is_same_v<decltype(out), const std::vector<char>>,
                "bool-returning fn must map to vector<char>");
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(out[i]), i % 3 == 0);
  }
  set_worker_count(0);
}

TEST(Runtime, SetWorkerCountResizesGlobalPool) {
  set_worker_count(3);
  EXPECT_EQ(global_pool().workers(), 3u);
  set_worker_count(1);
  EXPECT_EQ(global_pool().workers(), 1u);
  set_worker_count(0);  // restore automatic sizing
  EXPECT_EQ(global_pool().workers(), default_worker_count());
}

TEST(Runtime, DefaultWorkerCountHonorsEnvVar) {
  const char* old = std::getenv("NSYNC_THREADS");
  const std::string saved = old ? old : "";

  ASSERT_EQ(setenv("NSYNC_THREADS", "5", 1), 0);
  EXPECT_EQ(default_worker_count(), 5u);
  ASSERT_EQ(setenv("NSYNC_THREADS", "9999", 1), 0);
  EXPECT_EQ(default_worker_count(), 256u);  // clamped
  ASSERT_EQ(setenv("NSYNC_THREADS", "garbage", 1), 0);
  EXPECT_GE(default_worker_count(), 1u);  // falls back to hardware

  if (old) {
    setenv("NSYNC_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("NSYNC_THREADS");
  }
}

TEST(Runtime, HeavyConcurrentSubmitAndDrain) {
  ThreadPool pool(8);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 10000, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
}

}  // namespace
}  // namespace nsync::runtime
