// Drop-front frame buffer for streaming consumers.
//
// A FrameRingBuffer stores a sliding window of a conceptually unbounded
// frame stream.  Frames keep their *logical* index (the position in the
// full stream since the first append), but only the suffix that the
// consumer still needs is retained in memory: once drop_before(f) marks
// everything before logical frame f as dead, the storage is reclaimed by
// an amortized-O(1) compaction, so peak memory is proportional to the
// largest retained span plus the largest appended chunk — independent of
// the total stream length.  This is what keeps DwmSynchronizer's memory
// O(n_win + n_hop) over an arbitrarily long print instead of O(T).
//
// Views over any retained logical range are contiguous SignalViews, so
// every downstream analysis function works unchanged.
#ifndef NSYNC_SIGNAL_RING_BUFFER_HPP
#define NSYNC_SIGNAL_RING_BUFFER_HPP

#include <cstddef>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::signal {

class ByteWriter;
class ByteReader;

class FrameRingBuffer {
 public:
  /// An empty stream of `channels`-wide frames at `sample_rate` Hz.
  /// Throws std::invalid_argument on a zero channel count or a
  /// non-positive rate.
  FrameRingBuffer(std::size_t channels, double sample_rate);

  /// Logical index of the first retained frame.
  [[nodiscard]] std::size_t start() const { return start_; }
  /// Logical index one past the last appended frame (= total frames ever
  /// appended).
  [[nodiscard]] std::size_t end() const { return end_; }
  /// Frames currently held in memory (end() - start()).
  [[nodiscard]] std::size_t retained_frames() const { return end_ - start_; }
  /// Frames that fit in the current allocation (diagnostic; used by the
  /// bounded-memory tests).
  [[nodiscard]] std::size_t capacity_frames() const {
    return data_.capacity() / channels_;
  }

  /// Appends frames to the logical stream; channel counts must match.
  void append(const SignalView& frames);

  /// Marks every frame before logical index `frame` as dead.  Indices in
  /// the past (< start()) are a no-op; indices beyond end() clamp to
  /// end().  Storage is reclaimed lazily: the live frames are slid to the
  /// front of the buffer only once the dead prefix is at least as large
  /// as the live suffix, making the memmove amortized O(1) per frame.
  void drop_before(std::size_t frame);

  /// Contiguous view over logical frames [n1, n2).  Throws
  /// std::out_of_range unless start() <= n1 <= n2 <= end().
  [[nodiscard]] SignalView view(std::size_t n1, std::size_t n2) const;

  /// Pre-allocates room for `frames` retained frames.
  void reserve_frames(std::size_t frames) {
    data_.reserve(frames * channels_);
  }

  /// Serializes the logical stream position and the retained frames
  /// (checkpointing; save and restore run one field list, see
  /// signal/fields.hpp).  The physical head offset is not stored;
  /// restored buffers are normalized to head 0.
  void save_state(ByteWriter& w) const;

  /// Restores state written by save_state into this buffer, replacing its
  /// contents.  Throws CheckpointError: kMismatch when the serialized
  /// channel count / sample rate differ from this buffer's, kCorrupt /
  /// kTruncated on malformed input.  On throw, *this is unchanged.
  void restore_state(ByteReader& r);

 private:
  void compact();
  template <class Io>
  void fields(Io& io, auto& start, auto& end, auto& retained) const;

  std::vector<double> data_;  // row-major; frame f lives at head_ + (f - start_)
  std::size_t head_ = 0;      // offset (in frames) of start_ within data_
  std::size_t start_ = 0;     // logical index of first retained frame
  std::size_t end_ = 0;       // logical index one past the last frame
  std::size_t channels_ = 0;
  double sample_rate_ = 0.0;
};

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_RING_BUFFER_HPP
