// libFuzzer target: the NSFP frame-ingest wire protocol decoder.
//
// The decoder sits directly on the daemon's network boundary — every byte
// it sees comes from an untrusted socket peer.  Arbitrary input must
// resolve to one of the typed DecodeStatus outcomes (kNeedMore, kFrame,
// or a framing/payload error) and nothing else: no crashes, no OOM from
// length-prefix-driven allocations, no reads past the buffered bytes.
//
// The raw input doubles as a chunking schedule: the first byte selects a
// feed granularity so the same corpus exercises both bulk and
// byte-at-a-time reassembly, where resynchronization bugs live.  The
// second byte optionally splices a well-formed v4 keepalive or overload
// frame (PING, PONG, or a BUSY error with a retry-after hint) ahead of
// the raw remainder, so those frames are always reassembled through the
// same hostile chunking — and the raw tail gets to corrupt the stream
// right at a real frame boundary.  Every accepted frame must re-encode to
// its own bytes (bar the reserved u16 the decoder ignores): the decoder
// accepts only canonical encodings.  tests/golden/ seeds the corpus, each
// frame behind the two schedule bytes.
//
// Build: cmake -DNSYNC_BUILD_FUZZERS=ON (requires Clang; see
// fuzz/CMakeLists.txt).  Run: ./fuzz/fuzz_frame_protocol -max_total_time=60
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/wire_protocol.hpp"

namespace wire = nsync::engine::wire;

namespace {

/// Decodes every complete frame buffered.  `fed` is every byte fed so
/// far, so the bytes of each accepted frame can be located in it.
void drain(wire::FrameDecoder& decoder, std::span<const std::uint8_t> fed) {
  wire::Message msg;
  std::string detail;
  for (;;) {
    const std::size_t start = fed.size() - decoder.buffered();
    const wire::DecodeStatus status = decoder.next(msg, &detail);
    switch (status) {
      case wire::DecodeStatus::kFrame: {
        // Byte-exact re-encode, except the reserved u16 (header bytes
        // 6..7), which the decoder ignores.
        const auto frame =
            fed.subspan(start, fed.size() - decoder.buffered() - start);
        const std::vector<std::uint8_t> again = wire::encode(msg);
        if (again.size() != frame.size() ||
            !std::equal(again.begin(), again.begin() + 6, frame.begin()) ||
            !std::equal(again.begin() + 8, again.end(), frame.begin() + 8)) {
          __builtin_trap();
        }
        continue;  // there may be more frames buffered
      }
      case wire::DecodeStatus::kBadType:
      case wire::DecodeStatus::kMalformed:
        continue;  // frame-local: decoder must have consumed the frame
      case wire::DecodeStatus::kNeedMore:
        return;
      case wire::DecodeStatus::kBadMagic:
      case wire::DecodeStatus::kBadVersion:
      case wire::DecodeStatus::kOversized:
      case wire::DecodeStatus::kBadCrc:
        // Poisoned: every subsequent call must repeat the same status.
        if (!decoder.poisoned()) {
          __builtin_trap();
        }
        return;
    }
  }
}

}  // namespace

// A valid keepalive/overload frame to splice ahead of the fuzz bytes.
// The nonce is derived from the selector byte so the corpus can vary it.
std::vector<std::uint8_t> prelude(std::uint8_t selector) {
  switch (selector & 0x3) {
    case 1:
      return wire::encode(
          wire::Ping{0x9E3779B97F4A7C15ull ^ (std::uint64_t{selector} << 32)});
    case 2:
      return wire::encode(
          wire::Pong{0xC2B2AE3D27D4EB4Full ^ (std::uint64_t{selector} << 24)});
    case 3: {
      wire::Error busy;
      busy.code = wire::ErrorCode::kBusy;
      busy.message = "connection limit reached";
      busy.retry_after_ms = static_cast<std::uint32_t>(selector) * 37u;
      return wire::encode(busy);
    }
    default:
      return {};
  }
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) {
    return 0;
  }
  // First byte picks the chunk size (1..256); the second selects an
  // optional PING/PONG/BUSY prelude; the rest is the stream.
  const std::size_t chunk = static_cast<std::size_t>(data[0]) + 1;
  std::vector<std::uint8_t> stream = prelude(data[1]);
  const std::size_t prelude_len = stream.size();
  stream.insert(stream.end(), data + 2, data + size);

  wire::FrameDecoder decoder;
  std::size_t fed = 0;
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - off);
    decoder.feed(std::span<const std::uint8_t>(stream).subspan(off, n));
    fed += n;
    drain(decoder, std::span<const std::uint8_t>(stream).first(fed));
    if (decoder.poisoned()) {
      // A well-formed prelude can never poison the stream on its own.
      if (fed <= prelude_len) {
        __builtin_trap();
      }
      break;
    }
  }
  return 0;
}
