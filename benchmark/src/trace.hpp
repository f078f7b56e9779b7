// Spans for the traced run.  bench_e2e_traced is built with
// BENCH_E2E_TRACED=1; in bench_e2e every SpanScope compiles to nothing, so
// the untraced run executes no span code in its timed loops.
#ifndef BENCH_E2E_TRACE_HPP
#define BENCH_E2E_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#ifndef BENCH_E2E_TRACED
#define BENCH_E2E_TRACED 0
#endif

namespace bench {

inline constexpr bool kTraced = BENCH_E2E_TRACED != 0;

struct SpanRecord {
  const char* name = "";
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: root
  std::uint64_t request = 0;  ///< spans of one request share it
  std::uint32_t thread = 0;
};

/// Process-wide span store: per-thread buffers, merged when the run ends.
namespace spans {
[[nodiscard]] std::uint64_t next_id();
void record(const SpanRecord& s);
/// All spans recorded so far (every thread), in start order; clears them.
[[nodiscard]] std::vector<SpanRecord> take();
/// Durations (ms) of the spans called `name` that started in [from, to).
[[nodiscard]] std::vector<double> durations_ms(
    const std::vector<SpanRecord>& all, const std::string& name,
    std::chrono::steady_clock::time_point from,
    std::chrono::steady_clock::time_point to);
/// Writes spans as JSON rows [name, start_us, dur_us, id, parent, request,
/// thread], start relative to `epoch`.
void write(const std::string& path, const std::vector<SpanRecord>& all,
           std::chrono::steady_clock::time_point epoch);
}  // namespace spans

/// RAII span from construction to destruction.  `start` may be given to
/// open the span in the past (an open-loop request is timed from when it
/// was due).
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t parent = 0,
                     std::uint64_t request = 0) {
    if constexpr (kTraced) {
      rec_.name = name;
      rec_.parent = parent;
      rec_.request = request;
      rec_.id = spans::next_id();
      rec_.start = std::chrono::steady_clock::now();
    }
  }
  SpanScope(const char* name, std::chrono::steady_clock::time_point start,
            std::uint64_t parent, std::uint64_t request)
      : SpanScope(name, parent, request) {
    if constexpr (kTraced) rec_.start = start;
  }
  ~SpanScope() {
    if constexpr (kTraced) {
      rec_.end = std::chrono::steady_clock::now();
      spans::record(rec_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
};

/// Heap allocations counted by the operator-new hook linked into
/// bench_e2e_traced only (alloc_hook.cpp).  Counting is off until enabled.
namespace allocs {
void enable(bool on);
[[nodiscard]] std::uint64_t count();
}  // namespace allocs

}  // namespace bench

#endif  // BENCH_E2E_TRACE_HPP
