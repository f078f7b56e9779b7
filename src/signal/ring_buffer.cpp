#include "signal/ring_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"

namespace nsync::signal {

FrameRingBuffer::FrameRingBuffer(std::size_t channels, double sample_rate)
    : channels_(channels), sample_rate_(sample_rate) {
  if (channels == 0) {
    throw std::invalid_argument(
        "FrameRingBuffer: channel count must be positive");
  }
  if (sample_rate <= 0.0) {
    throw std::invalid_argument(
        "FrameRingBuffer: sample rate must be positive");
  }
}

void FrameRingBuffer::append(const SignalView& frames) {
  if (frames.channels() != channels_) {
    throw std::invalid_argument("FrameRingBuffer::append: channel mismatch");
  }
  // Reclaim the dead prefix before growing; appending never leaves more
  // dead than live data, so the buffer length tracks the retained span.
  compact();
  const std::size_t live = data_.size();
  const std::size_t incoming = frames.frames() * channels_;
  if (live + incoming > data_.capacity()) {
    data_.reserve(std::max(live + incoming, data_.capacity() * 2));
  }
  data_.insert(data_.end(), frames.data(), frames.data() + incoming);
  end_ += frames.frames();
}

void FrameRingBuffer::drop_before(std::size_t frame) {
  const std::size_t f = std::clamp(frame, start_, end_);
  head_ += f - start_;
  start_ = f;
  compact();
}

void FrameRingBuffer::compact() {
  const std::size_t live = retained_frames();
  if (head_ == 0 || head_ < live) return;  // dead prefix still small
  if (live > 0) {
    std::memmove(data_.data(), data_.data() + head_ * channels_,
                 live * channels_ * sizeof(double));
  }
  data_.resize(live * channels_);
  head_ = 0;
}

SignalView FrameRingBuffer::view(std::size_t n1, std::size_t n2) const {
  if (n1 < start_ || n1 > n2 || n2 > end_) {
    throw std::out_of_range("FrameRingBuffer::view: [" + std::to_string(n1) +
                            ", " + std::to_string(n2) + ") outside retained [" +
                            std::to_string(start_) + ", " +
                            std::to_string(end_) + ")");
  }
  return SignalView(data_.data() + (head_ + n1 - start_) * channels_, n2 - n1,
                    channels_, sample_rate_);
}

// The fingerprint comes from this buffer; start, end and the retained
// samples (a view of the live frames, or a fresh vector) come by reference.
template <class Io>
void FrameRingBuffer::fields(Io& io, auto& start, auto& end,
                             auto& retained) const {
  io.expect(channels_, "FrameRingBuffer channel count");
  io.expect(sample_rate_, "FrameRingBuffer sample rate");
  io.pod(start);
  io.pod(end);
  io.f64s(retained);
}

void FrameRingBuffer::save_state(ByteWriter& w) const {
  FieldWriter io(w);
  const std::span<const double> live(data_.data() + head_ * channels_,
                                     retained_frames() * channels_);
  fields(io, start_, end_, live);
}

void FrameRingBuffer::restore_state(ByteReader& r) {
  std::size_t start = 0;
  std::size_t end = 0;
  std::vector<double> retained;
  FieldReader io(r);
  fields(io, start, end, retained);
  // Division form: `(end - start) * channels_` wraps for a forged blob
  // with a huge [start, end) span over an empty retained vector.
  if (start > end || retained.size() % channels_ != 0 ||
      retained.size() / channels_ != end - start) {
    throw CheckpointError(
        CheckpointErrorKind::kCorrupt,
        "FrameRingBuffer: retained span does not match [start, end)");
  }
  data_ = std::move(retained);
  head_ = 0;
  start_ = start;
  end_ = end;
}

}  // namespace nsync::signal
