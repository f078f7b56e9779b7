// Tests for the drop-front FrameRingBuffer (streaming memory reclamation)
// and for Signal's geometric append growth / reserve_frames API.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "signal/ring_buffer.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "test_support.hpp"

namespace nsync::signal {
namespace {

Signal random_signal(std::size_t frames, std::size_t channels,
                     std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, channels, 100.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      s(n, c) = rng.normal();
    }
  }
  return s;
}

TEST(FrameRingBuffer, ConstructionValidates) {
  EXPECT_THROW(FrameRingBuffer(0, 100.0), std::invalid_argument);
  EXPECT_THROW(FrameRingBuffer(2, 0.0), std::invalid_argument);
  const FrameRingBuffer rb(3, 250.0);
  EXPECT_EQ(rb.view(0, 0).channels(), 3u);
  EXPECT_DOUBLE_EQ(rb.view(0, 0).sample_rate(), 250.0);
  EXPECT_EQ(rb.start(), 0u);
  EXPECT_EQ(rb.end(), 0u);
  EXPECT_EQ(rb.retained_frames(), 0u);
}

TEST(FrameRingBuffer, AppendPreservesLogicalIndexing) {
  const Signal s = random_signal(50, 2, 1);
  FrameRingBuffer rb(2, 100.0);
  rb.append(SignalView(s).slice(0, 20));
  rb.append(SignalView(s).slice(20, 50));
  EXPECT_EQ(rb.end(), 50u);
  const SignalView all = rb.view(0, 50);
  for (std::size_t n = 0; n < 50; ++n) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(all(n, c), s(n, c)) << "frame " << n;
    }
  }
}

TEST(FrameRingBuffer, AppendRejectsChannelMismatch) {
  FrameRingBuffer rb(2, 100.0);
  const Signal wrong = random_signal(5, 3, 2);
  EXPECT_THROW(rb.append(wrong), std::invalid_argument);
}

TEST(FrameRingBuffer, DroppedFramesKeepViewsValidAtLogicalIndices) {
  const Signal s = random_signal(100, 2, 3);
  FrameRingBuffer rb(2, 100.0);
  rb.append(s);
  rb.drop_before(60);
  EXPECT_EQ(rb.start(), 60u);
  EXPECT_EQ(rb.retained_frames(), 40u);
  const SignalView tail = rb.view(70, 90);
  for (std::size_t n = 0; n < 20; ++n) {
    EXPECT_DOUBLE_EQ(tail(n, 0), s(70 + n, 0)) << "frame " << n;
  }
  // Interleave more appends: logical indices keep counting from the
  // stream origin.
  const Signal t = random_signal(30, 2, 4);
  rb.append(t);
  EXPECT_EQ(rb.end(), 130u);
  const SignalView mixed = rb.view(95, 120);
  for (std::size_t n = 95; n < 100; ++n) {
    EXPECT_DOUBLE_EQ(mixed(n - 95, 1), s(n, 1));
  }
  for (std::size_t n = 100; n < 120; ++n) {
    EXPECT_DOUBLE_EQ(mixed(n - 95, 1), t(n - 100, 1));
  }
}

TEST(FrameRingBuffer, ViewBoundsAreEnforced) {
  const Signal s = random_signal(40, 1, 5);
  FrameRingBuffer rb(1, 100.0);
  rb.append(s);
  rb.drop_before(10);
  EXPECT_THROW((void)rb.view(9, 20), std::out_of_range);   // before start
  EXPECT_THROW((void)rb.view(10, 41), std::out_of_range);  // past end
  EXPECT_THROW((void)rb.view(30, 20), std::out_of_range);  // inverted
  EXPECT_NO_THROW((void)rb.view(10, 40));
  EXPECT_EQ(rb.view(15, 15).frames(), 0u);  // empty range is fine
}

TEST(FrameRingBuffer, DropBeforeClampsAndIgnoresThePast) {
  const Signal s = random_signal(20, 1, 6);
  FrameRingBuffer rb(1, 100.0);
  rb.append(s);
  rb.drop_before(12);
  rb.drop_before(5);  // in the past: no-op
  EXPECT_EQ(rb.start(), 12u);
  rb.drop_before(100);  // beyond end: clamps
  EXPECT_EQ(rb.start(), 20u);
  EXPECT_EQ(rb.retained_frames(), 0u);
  // The buffer keeps working after being fully drained.
  const Signal t = random_signal(8, 1, 7);
  rb.append(t);
  EXPECT_EQ(rb.start(), 20u);
  EXPECT_EQ(rb.end(), 28u);
  EXPECT_DOUBLE_EQ(rb.view(20, 28)(0, 0), t(0, 0));
}

TEST(FrameRingBuffer, MemoryStaysBoundedOverLongStream) {
  // Sliding-window usage: append a chunk, drop everything older than one
  // window.  Over 1000 chunks the allocation must stay proportional to
  // window + chunk, not to the stream.
  const std::size_t chunk = 64, window = 256;
  FrameRingBuffer rb(2, 100.0);
  const Signal s = random_signal(chunk, 2, 8);
  std::size_t peak_capacity = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    rb.append(s);
    const std::size_t frontier =
        rb.end() > window ? rb.end() - window : 0;
    rb.drop_before(frontier);
    peak_capacity = std::max(peak_capacity, rb.capacity_frames());
    EXPECT_LE(rb.retained_frames(), window + chunk);
  }
  EXPECT_EQ(rb.end(), 1000 * chunk);
  // Generous bound: a handful of window-spans, nowhere near 64000 frames.
  EXPECT_LE(peak_capacity, 4 * (window + chunk));
}

TEST(FrameRingBuffer, RetainedViewTracksLiveSpan) {
  const Signal s = random_signal(30, 2, 9);
  FrameRingBuffer rb(2, 100.0);
  rb.append(s);
  rb.drop_before(10);
  const SignalView live = rb.view(rb.start(), rb.end());
  EXPECT_EQ(live.frames(), 20u);
  EXPECT_DOUBLE_EQ(live(0, 0), s(10, 0));
  EXPECT_DOUBLE_EQ(live(19, 1), s(29, 1));
}

TEST(FrameRingBuffer, ReserveFramesPreventsReallocation) {
  FrameRingBuffer rb(2, 100.0);
  rb.reserve_frames(512);
  const std::size_t cap = rb.capacity_frames();
  EXPECT_GE(cap, 512u);
  const Signal s = random_signal(128, 2, 10);
  for (std::size_t i = 0; i < 100; ++i) {
    rb.append(s);
    rb.drop_before(rb.end() - 64);
  }
  EXPECT_EQ(rb.capacity_frames(), cap);
}

// --------------------------------------------------------------------------
// Signal growth API.
// --------------------------------------------------------------------------

TEST(SignalGrowth, AppendGrowsGeometrically) {
  Signal s = Signal::empty(2, 100.0);
  std::vector<double> frame = {1.0, 2.0};
  std::size_t reallocations = 0;
  std::size_t last_capacity = s.capacity_frames();
  for (std::size_t i = 0; i < 4096; ++i) {
    s.append_frame(frame);
    if (s.capacity_frames() != last_capacity) {
      ++reallocations;
      last_capacity = s.capacity_frames();
    }
  }
  EXPECT_EQ(s.frames(), 4096u);
  // Doubling growth: ~log2(4096) reallocations, not thousands.
  EXPECT_LE(reallocations, 16u);
}

TEST(SignalGrowth, ReserveFramesMakesAppendsAllocationStable) {
  Signal s = Signal::empty(3, 100.0);
  s.reserve_frames(1000);
  const std::size_t cap = s.capacity_frames();
  EXPECT_GE(cap, 1000u);
  const Signal chunk = random_signal(100, 3, 11);
  for (int i = 0; i < 10; ++i) test_support::append(s, chunk);
  EXPECT_EQ(s.frames(), 1000u);
  EXPECT_EQ(s.capacity_frames(), cap);
  // The deprecated-style alias keeps compiling for older call sites.
  s.reserve(2000);
  EXPECT_GE(s.capacity_frames(), 2000u);
}

}  // namespace
}  // namespace nsync::signal
