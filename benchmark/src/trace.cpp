#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace bench::spans {

namespace {

struct Store {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{0};
};

Store& store() {
  static Store s;
  return s;
}

struct ThreadBuffer {
  std::vector<SpanRecord>* spans = nullptr;
  std::uint32_t thread = 0;
};

ThreadBuffer& thread_buffer() {
  // The buffer is owned by the store, so it outlives the thread that
  // filled it and take() can merge it after the thread has joined.
  thread_local ThreadBuffer tb;
  if (tb.spans == nullptr) {
    Store& s = store();
    const std::scoped_lock lock(s.mu);
    s.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    tb.spans = s.buffers.back().get();
    tb.spans->reserve(1 << 16);
    tb.thread = s.next_thread++;
  }
  return tb;
}

}  // namespace

std::uint64_t next_id() { return store().next_id++; }

void record(const SpanRecord& s) {
  ThreadBuffer& tb = thread_buffer();
  tb.spans->push_back(s);
  tb.spans->back().thread = tb.thread;
}

std::vector<SpanRecord> take() {
  Store& s = store();
  const std::scoped_lock lock(s.mu);
  std::vector<SpanRecord> out;
  for (auto& buf : s.buffers) {
    out.insert(out.end(), buf->begin(), buf->end());
    buf->clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start < b.start;
            });
  return out;
}

std::vector<double> durations_ms(const std::vector<SpanRecord>& all,
                                 const std::string& name,
                                 std::chrono::steady_clock::time_point from,
                                 std::chrono::steady_clock::time_point to) {
  std::vector<double> out;
  for (const SpanRecord& s : all) {
    if (s.start >= from && s.start < to && name == s.name) {
      out.push_back(
          std::chrono::duration<double, std::milli>(s.end - s.start).count());
    }
  }
  return out;
}

void write(const std::string& path, const std::vector<SpanRecord>& all,
           std::chrono::steady_clock::time_point epoch) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"columns\": [\"name\", \"start_us\", \"dur_us\", \"id\", "
         "\"parent\", \"request\", \"thread\"],\n \"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const auto us = [](auto d) {
      return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    };
    out << (i == 0 ? "\n  " : ",\n  ") << "[\"" << s.name << "\", "
        << us(s.start - epoch) << ", " << us(s.end - s.start) << ", " << s.id
        << ", " << s.parent << ", " << s.request << ", " << s.thread << "]";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace bench::spans
