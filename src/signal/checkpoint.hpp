// Crash-safe checkpoint serialization for the streaming fleet.
//
// NSYNC's value is in-process detection: every byte of detection state —
// synchronizer rings, min-filter deques, CADHD accumulators, health
// machines, latched verdicts — otherwise lives only in RAM, so a monitor
// host crash silently resets every session to "benign", exactly the
// window an attacker wants.  This module provides the primitives the
// streaming classes serialize themselves with, and the hardened on-disk
// container they are stored in:
//
//   * ByteWriter / ByteReader — little-endian POD + length-prefixed array
//     encoding with strict bounds checking.  Doubles round-trip as raw
//     bits, so restored state is bitwise identical to the saved state
//     (the restore-equivalence property tests depend on this).
//   * Sections — (u32 id | u64 length | payload) envelopes that let a
//     reader validate structure and reject foreign/corrupt payloads with
//     a typed error instead of misparsing them.
//   * Container framing — magic "NCKP" | u32 version | u64 payload length
//     | payload | u32 CRC32(payload).  Truncated, corrupt and
//     version-mismatched files are rejected with CheckpointError; nothing
//     is ever partially applied.
//   * Atomic file replacement — write to a unique "<path>.<pid>.<n>.tmp",
//     fsync, rename over `path`.  A crash mid-write leaves the previous
//     checkpoint loadable, and concurrent writers never share a tmp file;
//     remove_stale_tmp_files() reclaims the tmp files such crashes leave.
//
// Every failure mode throws CheckpointError with a machine-readable kind;
// no other exception type escapes the loaders (fuzz/fuzz_checkpoint pins
// this).
#ifndef NSYNC_SIGNAL_CHECKPOINT_HPP
#define NSYNC_SIGNAL_CHECKPOINT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::signal {

/// Why a checkpoint operation failed (CheckpointError::kind()).
enum class CheckpointErrorKind {
  kIo,          ///< open/write/fsync/rename/read failure
  kBadMagic,    ///< not a checkpoint file at all
  kBadVersion,  ///< a checkpoint, but from an incompatible format version
  kTruncated,   ///< file/section shorter than its declared contents
  kCorrupt,     ///< CRC mismatch, implausible counts, malformed structure
  kMismatch,    ///< valid state, but for a different object configuration
};

[[nodiscard]] std::string checkpoint_error_kind_name(CheckpointErrorKind k);

/// The one exception type every checkpoint save/restore path throws.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& message)
      : std::runtime_error(checkpoint_error_kind_name(kind) + ": " + message),
        kind_(kind) {}

  [[nodiscard]] CheckpointErrorKind kind() const { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

/// CRC-32 (IEEE 802.3, reflected) over a byte range, through the active
/// SIMD backend's crc32_update kernel (every backend gives the same bits).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t bytes);

/// A byte string held as consecutive pieces (ByteWriter::pieces()).
using BytePieces = std::span<const std::span<const std::uint8_t>>;

/// CRC-32 of the concatenation of `pieces`, in one pass over each.
[[nodiscard]] std::uint32_t crc32(BytePieces pieces);

/// Append-only little-endian encoder.  All multi-byte values are written
/// via memcpy of their object representation (the build asserts a
/// little-endian host, matching the NSIG signal format).
///
/// A referencing writer (Arrays::kReference) stores each f64_array()'s
/// values — a signal's samples — as a reference to the caller's array
/// instead of copying them: the encoding is then pieces(), buffered runs
/// with the referenced arrays between them, and stays valid only while
/// those arrays do.  A copying writer's encoding is data().
class ByteWriter {
 public:
  enum class Arrays { kCopy, kReference };

  explicit ByteWriter(Arrays arrays = Arrays::kCopy) : arrays_(arrays) {}
  /// A copying writer that encodes into `reuse`'s storage: its contents
  /// are dropped, its capacity kept, and take() hands it back, so a
  /// caller that recycles one buffer encodes without allocating.
  explicit ByteWriter(std::vector<std::uint8_t>&& reuse)
      : buf_(std::move(reuse)), arrays_(Arrays::kCopy) {
    buf_.clear();
  }

  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::pod needs a trivially copyable type");
    append(&value, sizeof(T));
  }

  void bytes(const void* data, std::size_t n) { append(data, n); }

  /// u64 element count followed by the raw values.
  void f64_array(std::span<const double> values);
  void u8_array(std::span<const std::uint8_t> values);

  /// u64 byte count followed by the characters.
  void str(const std::string& s);

  /// Full signal state: u64 frames | u64 channels | f64 rate | samples.
  void signal(const SignalView& s);

  /// Opens a (u32 id | u64 length | ...) section and returns a token for
  /// end_section(), which patches the length in place.  Sections nest.
  [[nodiscard]] std::size_t begin_section(std::uint32_t id);
  void end_section(std::size_t token);

  /// The encoding of a writer that references nothing (throws
  /// std::logic_error otherwise: the buffer lacks the referenced arrays).
  [[nodiscard]] std::span<const std::uint8_t> data() const;
  [[nodiscard]] std::vector<std::uint8_t> take();

  /// Bytes encoded so far, referenced arrays included.
  [[nodiscard]] std::size_t size() const {
    return buf_.size() + referenced_bytes_;
  }
  /// The encoding as consecutive non-empty pieces, in order.
  [[nodiscard]] std::vector<std::span<const std::uint8_t>> pieces() const;

 private:
  void append(const void* data, std::size_t n);

  /// An array referenced at buffer offset `at` (between buf_[at - 1] and
  /// buf_[at]).
  struct Reference {
    std::size_t at = 0;
    std::span<const std::uint8_t> bytes;
  };

  std::vector<std::uint8_t> buf_;
  Arrays arrays_;
  std::vector<Reference> references_;
  std::size_t referenced_bytes_ = 0;
};

/// Bounds-checked decoder over a byte span.  Every read validates that
/// the declared contents fit in the remaining bytes and throws
/// CheckpointError (kTruncated/kCorrupt) otherwise — a malformed blob can
/// never cause an out-of-range read or an absurd allocation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader::pod needs a trivially copyable type");
    require(sizeof(T));
    T value{};
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// The next `n` raw bytes, as a view into the underlying buffer.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::vector<double> f64_array();
  [[nodiscard]] std::vector<std::uint8_t> u8_array();
  [[nodiscard]] std::string str();
  [[nodiscard]] Signal signal();

  /// Enters the next section, which must carry `expected_id`, and returns
  /// a sub-reader spanning exactly its payload.  The parent reader
  /// advances past the whole section.
  [[nodiscard]] ByteReader section(std::uint32_t expected_id);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws kCorrupt unless every byte has been consumed — trailing
  /// garbage means the payload was not written by the matching saver.
  void finish() const;

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Frames a payload into the on-disk container:
///   "NCKP" | u32 version | u64 payload bytes | payload | u32 crc32(payload).
[[nodiscard]] std::vector<std::uint8_t> frame_checkpoint(
    std::span<const std::uint8_t> payload);

/// Validates container framing (magic, version, length, CRC) and returns
/// the payload span (a view into `file`).  Throws CheckpointError with
/// kBadMagic / kBadVersion / kTruncated / kCorrupt.
[[nodiscard]] std::span<const std::uint8_t> unframe_checkpoint(
    std::span<const std::uint8_t> file);

/// Atomically replaces `path` with frame_checkpoint(payload): writes a
/// per-writer-unique "<path>.<pid>.<n>.tmp" (O_EXCL) with the header,
/// payload and footer straight from their buffers (no framed copy of the
/// payload is built), fsyncs it, then renames over `path` (and fsyncs the
/// directory).  On any failure the tmp file is removed and the previous
/// `path` contents are untouched; concurrent callers race only on the
/// final rename, each with a complete file.  Throws CheckpointError(kIo).
void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> payload);

/// write_checkpoint_file of the concatenation of `pieces`, whose CRC-32
/// the caller already holds (crc32(pieces)): the header, every piece and
/// the footer go to the tmp file in one writev, and no byte of the
/// payload is copied or checksummed here.
void write_checkpoint_file(const std::string& path, BytePieces pieces,
                           std::uint32_t payload_crc);

/// Reads `path`, validates the container, returns the payload (read
/// straight into the returned vector; the framing is read beside it).
[[nodiscard]] std::vector<std::uint8_t> read_checkpoint_file(
    const std::string& path);

/// read_checkpoint_file for a file another checkpoint refers to by the
/// size and CRC-32 of its payload.  Throws kMismatch when the file's
/// payload is not exactly that one (checked before the framing, so an
/// edited payload is a mismatch, not corruption), kIo when unreadable,
/// and the framing errors otherwise.  The payload is checksummed once,
/// for both the reference and the footer.
[[nodiscard]] std::vector<std::uint8_t> read_checkpoint_file(
    const std::string& path, std::uint64_t payload_bytes,
    std::uint32_t payload_crc);

/// Deletes the leftovers of write_checkpoint_file calls that died mid-write
/// (a SIGKILL between create and rename): files in the directory of
/// `path` named "<name>.<pid>.<n>.tmp" where <name> is `path`'s file name
/// or starts with it plus "." (files written beside it), and <pid> is not
/// this process (whose writes may still be in flight).  Best-effort:
/// filesystem errors are ignored.  Returns the number of files removed.
std::size_t remove_stale_tmp_files(const std::string& path);

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_CHECKPOINT_HPP
