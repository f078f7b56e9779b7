// Unit tests for the Signal / SignalView containers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::signal {
namespace {

TEST(Signal, ZeroFilledConstruction) {
  Signal s(10, 3, 100.0);
  EXPECT_EQ(s.frames(), 10u);
  EXPECT_EQ(s.channels(), 3u);
  EXPECT_DOUBLE_EQ(s.sample_rate(), 100.0);
  EXPECT_DOUBLE_EQ(s.duration(), 0.1);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    for (std::size_t c = 0; c < s.channels(); ++c) {
      EXPECT_DOUBLE_EQ(s(n, c), 0.0);
    }
  }
}

TEST(Signal, ConstructionRejectsBadArguments) {
  EXPECT_THROW(Signal(10, 0, 100.0), std::invalid_argument);
  EXPECT_THROW(Signal(10, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(Signal(10, 2, -5.0), std::invalid_argument);
}

TEST(Signal, FromFramesAdoptsRowMajorStorage) {
  std::vector<double> data = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const double* storage = data.data();
  Signal s = Signal::from_frames(std::move(data), 3, 8.0);
  EXPECT_EQ(s.frames(), 2u);
  EXPECT_EQ(s.channels(), 3u);
  EXPECT_DOUBLE_EQ(s.sample_rate(), 8.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 4.0);
  EXPECT_EQ(s.data(), storage);  // moved in, not copied
  EXPECT_THROW(Signal::from_frames({1.0, 2.0, 3.0}, 2, 8.0),
               std::invalid_argument);
  EXPECT_THROW(Signal::from_frames({1.0, 2.0}, 0, 8.0), std::invalid_argument);
  EXPECT_THROW(Signal::from_frames({1.0, 2.0}, 2, 0.0), std::invalid_argument);
}

TEST(Signal, AtBoundsChecking) {
  Signal s(4, 2, 10.0);
  const SignalView v = s.view();
  EXPECT_NO_THROW(static_cast<void>(v.at(3, 1)));
  EXPECT_THROW(static_cast<void>(v.at(4, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(v.at(0, 2)), std::out_of_range);
}

TEST(Signal, AppendFrameGrowsSignal) {
  Signal s = Signal::empty(2, 100.0);
  EXPECT_TRUE(s.empty());
  const double row1[] = {1.0, 2.0};
  const double row2[] = {3.0, 4.0};
  s.append_frame(row1);
  s.append_frame(row2);
  EXPECT_EQ(s.frames(), 2u);
  EXPECT_DOUBLE_EQ(s(1, 1), 4.0);
}

TEST(Signal, AppendFrameRejectsChannelMismatch) {
  Signal s(1, 2, 100.0);
  const double row[] = {1.0, 2.0, 3.0};
  EXPECT_THROW(s.append_frame(row), std::invalid_argument);
}

TEST(Signal, FrameSpanIsMutable) {
  Signal s(3, 2, 10.0);
  auto f = s.frame(1);
  f[0] = 7.0;
  f[1] = 8.0;
  EXPECT_DOUBLE_EQ(s(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 8.0);
  EXPECT_THROW(static_cast<void>(s.frame(3)), std::out_of_range);
}

TEST(SignalView, SliceIsZeroCopy) {
  Signal s = Signal::from_frames({0.0, 1.0, 2.0, 3.0, 4.0}, 1, 10.0);
  SignalView v = s.slice(1, 4);
  EXPECT_EQ(v.frames(), 3u);
  EXPECT_DOUBLE_EQ(v(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(v(2, 0), 3.0);
  EXPECT_EQ(v.data(), s.data() + 1);
}

TEST(SignalView, SliceRejectsBadRanges) {
  Signal s(5, 1, 10.0);
  EXPECT_THROW(static_cast<void>(s.slice(3, 2)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(s.slice(0, 6)), std::out_of_range);
  EXPECT_NO_THROW(static_cast<void>(s.slice(5, 5)));  // empty slice at the end is legal
}

TEST(SignalView, ClampedSliceNeverThrows) {
  Signal s = Signal::from_frames({0.0, 1.0, 2.0, 3.0}, 1, 10.0);
  SignalView v = s.view().clamped_slice(-5, 2);
  EXPECT_EQ(v.frames(), 2u);
  EXPECT_DOUBLE_EQ(v(0, 0), 0.0);
  v = s.view().clamped_slice(2, 99);
  EXPECT_EQ(v.frames(), 2u);
  EXPECT_DOUBLE_EQ(v(0, 0), 2.0);
  v = s.view().clamped_slice(10, 20);
  EXPECT_TRUE(v.empty());
  v = s.view().clamped_slice(3, 1);  // inverted range -> empty
  EXPECT_TRUE(v.empty());
}

TEST(SignalView, ChannelExtraction) {
  Signal s = Signal::from_frames({1.0, 4.0, 2.0, 5.0, 3.0, 6.0}, 2, 10.0);
  const auto c1 = s.channel(1);
  ASSERT_EQ(c1.size(), 3u);
  EXPECT_DOUBLE_EQ(c1[0], 4.0);
  EXPECT_DOUBLE_EQ(c1[2], 6.0);
  EXPECT_THROW(static_cast<void>(s.view().channel(2)), std::out_of_range);
}

TEST(SignalView, ToSignalDeepCopies) {
  Signal s = Signal::from_frames({1.0, 2.0, 3.0}, 1, 10.0);
  Signal copy = s.slice(1, 3).to_signal();
  EXPECT_EQ(copy.frames(), 2u);
  copy(0, 0) = 99.0;
  EXPECT_DOUBLE_EQ(s(1, 0), 2.0);  // original untouched
}

TEST(SignalView, ImplicitConversionFromSignal) {
  Signal s(4, 2, 50.0);
  SignalView v = s;
  EXPECT_EQ(v.frames(), 4u);
  EXPECT_EQ(v.channels(), 2u);
  EXPECT_DOUBLE_EQ(v.sample_rate(), 50.0);
}

TEST(SignalView, DurationOfEmptyViewIsZero) {
  SignalView v;
  EXPECT_TRUE(v.empty());
  EXPECT_DOUBLE_EQ(v.duration(), 0.0);
}

class SignalSliceProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SignalSliceProperty, SliceComposesWithIndexing) {
  const std::size_t offset = GetParam();
  Signal s(64, 3, 100.0);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    for (std::size_t c = 0; c < s.channels(); ++c) {
      s(n, c) = static_cast<double>(n * 10 + c);
    }
  }
  const SignalView v = s.slice(offset, 64);
  for (std::size_t n = 0; n < v.frames(); ++n) {
    for (std::size_t c = 0; c < v.channels(); ++c) {
      EXPECT_DOUBLE_EQ(v(n, c), s(n + offset, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, SignalSliceProperty,
                         ::testing::Values(0, 1, 7, 31, 63, 64));

}  // namespace
}  // namespace nsync::signal
