#include "signal/checkpoint.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "dsp/simd/simd.hpp"

namespace nsync::signal {

static_assert(std::endian::native == std::endian::little,
              "checkpoint serialization assumes a little-endian host");

namespace {

constexpr std::array<char, 4> kMagic = {'N', 'C', 'K', 'P'};
// v2: RealtimeMonitor serializes the benign-baseline accumulator and fleet
// payloads carry the baseline-registry section; v1 files predate per-device
// adaptation and are rejected rather than restored with a silently empty
// baseline.  Payload layouts version themselves below the container (the
// fleet payload through its section id, NBRG through its format field), so
// a payload change does not orphan every other kind of NCKP file.
constexpr std::uint32_t kVersion = 2;
// Header: magic + u32 version + u64 payload length; footer: u32 CRC.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kFooterBytes = 4;

[[nodiscard]] std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

std::string checkpoint_error_kind_name(CheckpointErrorKind k) {
  switch (k) {
    case CheckpointErrorKind::kIo: return "checkpoint io error";
    case CheckpointErrorKind::kBadMagic: return "checkpoint bad magic";
    case CheckpointErrorKind::kBadVersion: return "checkpoint bad version";
    case CheckpointErrorKind::kTruncated: return "checkpoint truncated";
    case CheckpointErrorKind::kCorrupt: return "checkpoint corrupt";
    case CheckpointErrorKind::kMismatch: return "checkpoint mismatch";
  }
  return "checkpoint error";
}

std::uint32_t crc32(const void* data, std::size_t bytes) {
  return nsync::dsp::simd::ops().crc32_update(
             0xFFFFFFFFu, static_cast<const std::uint8_t*>(data), bytes) ^
         0xFFFFFFFFu;
}

std::uint32_t crc32(BytePieces pieces) {
  const auto& ops = nsync::dsp::simd::ops();
  std::uint32_t state = 0xFFFFFFFFu;
  for (const std::span<const std::uint8_t> piece : pieces) {
    state = ops.crc32_update(state, piece.data(), piece.size());
  }
  return state ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// ByteWriter

void ByteWriter::append(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::f64_array(std::span<const double> values) {
  pod<std::uint64_t>(values.size());
  if (arrays_ == Arrays::kReference && !values.empty()) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size_bytes());
    references_.push_back({buf_.size(), bytes});
    referenced_bytes_ += bytes.size();
    return;
  }
  append(values.data(), values.size() * sizeof(double));
}

void ByteWriter::u8_array(std::span<const std::uint8_t> values) {
  pod<std::uint64_t>(values.size());
  append(values.data(), values.size());
}

void ByteWriter::str(const std::string& s) {
  pod<std::uint64_t>(s.size());
  append(s.data(), s.size());
}

void ByteWriter::signal(const SignalView& s) {
  pod<std::uint64_t>(s.frames());
  pod<std::uint64_t>(s.channels());
  pod<double>(s.sample_rate());
  f64_array({s.data(), s.frames() * s.channels()});
}

std::size_t ByteWriter::begin_section(std::uint32_t id) {
  pod<std::uint32_t>(id);
  const std::size_t token = buf_.size();
  pod<std::uint64_t>(0);  // patched by end_section
  return token;
}

void ByteWriter::end_section(std::size_t token) {
  std::uint64_t length = buf_.size() - token - sizeof(std::uint64_t);
  // Arrays referenced inside the section (after its length field).
  for (const Reference& r : references_) {
    if (r.at > token) length += r.bytes.size();
  }
  std::memcpy(buf_.data() + token, &length, sizeof(length));
}

std::span<const std::uint8_t> ByteWriter::data() const {
  if (!references_.empty()) {
    throw std::logic_error(
        "ByteWriter::data: the encoding references arrays; use pieces()");
  }
  return buf_;
}

std::vector<std::uint8_t> ByteWriter::take() {
  (void)data();  // throws for an encoding that references arrays
  return std::move(buf_);
}

std::vector<std::span<const std::uint8_t>> ByteWriter::pieces() const {
  std::vector<std::span<const std::uint8_t>> out;
  out.reserve(2 * references_.size() + 1);
  const std::span<const std::uint8_t> buf(buf_);
  std::size_t from = 0;
  for (const Reference& r : references_) {
    if (r.at > from) out.push_back(buf.subspan(from, r.at - from));
    out.push_back(r.bytes);
    from = r.at;
  }
  if (buf.size() > from) out.push_back(buf.subspan(from));
  return out;
}

// ---------------------------------------------------------------------------
// ByteReader

void ByteReader::require(std::size_t n) const {
  if (n > remaining()) {
    throw CheckpointError(
        CheckpointErrorKind::kTruncated,
        "need " + std::to_string(n) + " bytes, have " +
            std::to_string(remaining()));
  }
}

std::vector<double> ByteReader::f64_array() {
  const auto count = pod<std::uint64_t>();
  if (count > remaining() / sizeof(double)) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "f64 array of " + std::to_string(count) +
                              " elements exceeds remaining bytes");
  }
  std::vector<double> out(static_cast<std::size_t>(count));
  // memcpy from/to a null pointer is undefined even for zero bytes, and an
  // empty vector's data() may be null.
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + pos_, out.size() * sizeof(double));
  }
  pos_ += out.size() * sizeof(double);
  return out;
}

std::vector<std::uint8_t> ByteReader::u8_array() {
  const auto count = pod<std::uint64_t>();
  if (count > remaining()) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "u8 array of " + std::to_string(count) +
                              " elements exceeds remaining bytes");
  }
  std::vector<std::uint8_t> out(
      data_.begin() + static_cast<std::ptrdiff_t>(pos_),
      data_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += static_cast<std::size_t>(count);
  return out;
}

std::string ByteReader::str() {
  const auto count = pod<std::uint64_t>();
  if (count > remaining()) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "string of " + std::to_string(count) +
                              " bytes exceeds remaining bytes");
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(count));
  pos_ += static_cast<std::size_t>(count);
  return out;
}

Signal ByteReader::signal() {
  const auto frames = pod<std::uint64_t>();
  const auto channels = pod<std::uint64_t>();
  const auto rate = pod<double>();
  std::vector<double> samples = f64_array();
  // Division form: `frames * channels` wraps for forged headers (e.g.
  // frames = 2^62, channels = 4 with an empty sample array), which would
  // admit a Signal claiming frames it has no backing storage for.
  if (channels == 0 || !(rate > 0.0) || samples.size() % channels != 0 ||
      samples.size() / channels != frames) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "implausible serialized signal header");
  }
  return Signal::from_frames(std::move(samples),
                             static_cast<std::size_t>(channels), rate);
}

ByteReader ByteReader::section(std::uint32_t expected_id) {
  const auto id = pod<std::uint32_t>();
  if (id != expected_id) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "expected section " + std::to_string(expected_id) +
                              ", found " + std::to_string(id));
  }
  const auto length = pod<std::uint64_t>();
  require(static_cast<std::size_t>(length));
  ByteReader sub(data_.subspan(pos_, static_cast<std::size_t>(length)));
  pos_ += static_cast<std::size_t>(length);
  return sub;
}

void ByteReader::finish() const {
  if (remaining() != 0) {
    throw CheckpointError(
        CheckpointErrorKind::kCorrupt,
        std::to_string(remaining()) + " trailing bytes after payload");
  }
}

// ---------------------------------------------------------------------------
// Container framing

namespace {

using FrameHeader = std::array<std::uint8_t, kHeaderBytes>;
using FrameFooter = std::array<std::uint8_t, kFooterBytes>;

[[nodiscard]] FrameHeader frame_header(std::uint64_t payload_bytes) {
  FrameHeader h{};
  std::memcpy(h.data(), kMagic.data(), kMagic.size());
  std::memcpy(h.data() + 4, &kVersion, sizeof(kVersion));
  std::memcpy(h.data() + 8, &payload_bytes, sizeof(payload_bytes));
  return h;
}

[[nodiscard]] FrameFooter frame_footer(std::uint32_t payload_crc) {
  FrameFooter f{};
  std::memcpy(f.data(), &payload_crc, sizeof(payload_crc));
  return f;
}

// Validates the framing of a `size`-byte file whose first
// min(size, kHeaderBytes) bytes are at `head`: everything but the CRC.
void check_header(const std::uint8_t* head, std::size_t size) {
  if (size < kMagic.size()) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "file shorter than the magic");
  }
  if (std::memcmp(head, kMagic.data(), kMagic.size()) != 0) {
    throw CheckpointError(CheckpointErrorKind::kBadMagic,
                          "not an NCKP checkpoint file");
  }
  if (size < kHeaderBytes + kFooterBytes) {
    throw CheckpointError(CheckpointErrorKind::kTruncated,
                          "file shorter than the fixed header + footer");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, head + 4, sizeof(version));
  if (version != kVersion) {
    throw CheckpointError(CheckpointErrorKind::kBadVersion,
                          "format version " + std::to_string(version) +
                              ", this build reads version " +
                              std::to_string(kVersion));
  }
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, head + 8, sizeof(payload_bytes));
  if (payload_bytes != size - kHeaderBytes - kFooterBytes) {
    throw CheckpointError(
        CheckpointErrorKind::kTruncated,
        "declared payload of " + std::to_string(payload_bytes) +
            " bytes does not match file size " + std::to_string(size));
  }
}

void check_crc(const std::uint8_t* footer, std::uint32_t payload_crc) {
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, footer, sizeof(stored_crc));
  if (stored_crc != payload_crc) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "payload CRC mismatch");
  }
}

}  // namespace

std::vector<std::uint8_t> frame_checkpoint(
    std::span<const std::uint8_t> payload) {
  const FrameHeader header = frame_header(payload.size());
  const FrameFooter footer =
      frame_footer(crc32(payload.data(), payload.size()));
  std::vector<std::uint8_t> file;
  file.reserve(header.size() + payload.size() + footer.size());
  file.insert(file.end(), header.begin(), header.end());
  file.insert(file.end(), payload.begin(), payload.end());
  file.insert(file.end(), footer.begin(), footer.end());
  return file;
}

std::span<const std::uint8_t> unframe_checkpoint(
    std::span<const std::uint8_t> file) {
  check_header(file.data(), file.size());
  const std::span<const std::uint8_t> payload =
      file.subspan(kHeaderBytes, file.size() - kHeaderBytes - kFooterBytes);
  check_crc(file.data() + file.size() - kFooterBytes,
            crc32(payload.data(), payload.size()));
  return payload;
}

// ---------------------------------------------------------------------------
// Atomic file replacement (POSIX)

namespace {

// Skips `n` bytes a readv/writev moved, starting at iov[first]: entries
// it covered (and empty ones after them) advance `first`, a partly moved
// entry is trimmed so the next call resumes inside it.
void consume(std::span<::iovec> iov, std::size_t& first, std::size_t n) {
  while (first < iov.size() && n >= iov[first].iov_len) {
    n -= iov[first].iov_len;
    ++first;
  }
  if (n > 0) {
    iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + n;
    iov[first].iov_len -= n;
  }
}

// Writes every byte of `parts`, in order, with as few writev calls as the
// kernel allows.  Returns false with errno set on failure.
[[nodiscard]] bool write_all(int fd, BytePieces parts) {
  std::vector<::iovec> iov;
  iov.reserve(parts.size());
  for (const std::span<const std::uint8_t> part : parts) {
    if (part.empty()) continue;
    iov.push_back({const_cast<std::uint8_t*>(part.data()), part.size()});
  }
  std::size_t first = 0;
  while (first < iov.size()) {
    const auto count =
        static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX));
    const ::ssize_t n = ::writev(fd, iov.data() + first, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    consume(iov, first, static_cast<std::size_t>(n));
  }
  return true;
}

// Atomically replaces `path` with the concatenation of `parts`, written
// into the tmp file without joining them in memory first.
void atomic_write_parts(const std::string& path, BytePieces parts) {
  // Unique tmp name per writer (pid + process-wide counter) with O_EXCL:
  // two concurrent writers each assemble a complete file privately and
  // race only on the atomic rename, so the loser can never leave a torn
  // file at `path`.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_seq.fetch_add(1)) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          errno_message("cannot create '" + tmp + "'"));
  }
  if (!write_all(fd, parts)) {
    const std::string msg = errno_message("write to '" + tmp + "' failed");
    ::close(fd);
    ::unlink(tmp.c_str());
    throw CheckpointError(CheckpointErrorKind::kIo, msg);
  }
  if (::fsync(fd) != 0) {
    const std::string msg = errno_message("fsync of '" + tmp + "' failed");
    ::close(fd);
    ::unlink(tmp.c_str());
    throw CheckpointError(CheckpointErrorKind::kIo, msg);
  }
  if (::close(fd) != 0) {
    const std::string msg = errno_message("close of '" + tmp + "' failed");
    ::unlink(tmp.c_str());
    throw CheckpointError(CheckpointErrorKind::kIo, msg);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string msg =
        errno_message("rename '" + tmp + "' -> '" + path + "' failed");
    ::unlink(tmp.c_str());
    throw CheckpointError(CheckpointErrorKind::kIo, msg);
  }
  // Persist the rename itself: fsync the containing directory so the new
  // file survives a power cut, not just a process crash.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    // Best-effort: some filesystems reject directory fsync; the rename is
    // already atomic for crash (not power-loss) purposes either way.
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> payload) {
  write_checkpoint_file(path, {&payload, 1},
                        crc32(payload.data(), payload.size()));
}

void write_checkpoint_file(const std::string& path, BytePieces pieces,
                           std::uint32_t payload_crc) {
  std::size_t payload_bytes = 0;
  for (const std::span<const std::uint8_t> piece : pieces) {
    payload_bytes += piece.size();
  }
  const FrameHeader header = frame_header(payload_bytes);
  const FrameFooter footer = frame_footer(payload_crc);
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(pieces.size() + 2);
  parts.emplace_back(header);
  parts.insert(parts.end(), pieces.begin(), pieces.end());
  parts.emplace_back(footer);
  atomic_write_parts(path, parts);
}

namespace {

// A checkpoint file read into place: the payload straight into the
// vector read_checkpoint_file returns, the framing beside it.
struct FileParts {
  std::size_t size = 0;  // of the whole file
  FrameHeader header{};  // its first min(size, kHeaderBytes) bytes
  // Only when size >= kHeaderBytes + kFooterBytes:
  std::vector<std::uint8_t> payload;
  FrameFooter footer{};
};

[[nodiscard]] FileParts read_parts(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CheckpointError(CheckpointErrorKind::kIo,
                          errno_message("cannot open '" + path + "'"));
  }
  FileParts parts;
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string msg = errno_message("cannot stat '" + path + "'");
    ::close(fd);
    throw CheckpointError(CheckpointErrorKind::kIo, msg);
  }
  parts.size = static_cast<std::size_t>(st.st_size);
  std::array<::iovec, 3> iov{};
  std::size_t count = 1;
  iov[0] = {parts.header.data(), std::min(parts.size, kHeaderBytes)};
  if (parts.size >= kHeaderBytes + kFooterBytes) {
    parts.payload.resize(parts.size - kHeaderBytes - kFooterBytes);
    iov[1] = {parts.payload.data(), parts.payload.size()};
    iov[2] = {parts.footer.data(), parts.footer.size()};
    count = 3;
  }
  const std::span<::iovec> want(iov.data(), count);
  std::size_t first = 0;
  consume(want, first, 0);  // an empty file reads nothing
  while (first < count) {
    const ::ssize_t n =
        ::readv(fd, iov.data() + first, static_cast<int>(count - first));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // An error, or a file that shrank since fstat.
      const std::string msg =
          n < 0 ? errno_message("read of '" + path + "' failed")
                : "read of '" + path + "' failed: file shrank while read";
      ::close(fd);
      throw CheckpointError(CheckpointErrorKind::kIo, msg);
    }
    consume(want, first, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return parts;
}

}  // namespace

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  FileParts parts = read_parts(path);
  check_header(parts.header.data(), parts.size);
  check_crc(parts.footer.data(),
            crc32(parts.payload.data(), parts.payload.size()));
  return std::move(parts.payload);
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path,
                                               std::uint64_t payload_bytes,
                                               std::uint32_t payload_crc) {
  FileParts parts = read_parts(path);
  // The reference is checked before the framing, so any edit to the
  // payload reads as "not the file the referrer wrote" (kMismatch), not
  // as generic corruption.  One CRC pass serves both checks.
  // Subtraction form: `payload_bytes` comes from the referring file and
  // must not be able to wrap the size check.
  const bool same_size =
      parts.size >= kHeaderBytes + kFooterBytes &&
      payload_bytes == parts.size - kHeaderBytes - kFooterBytes;
  const std::uint32_t crc =
      same_size ? crc32(parts.payload.data(), parts.payload.size()) : 0;
  if (!same_size || crc != payload_crc) {
    throw CheckpointError(CheckpointErrorKind::kMismatch,
                          "'" + path + "' is not the file its checkpoint "
                          "references (size or CRC differs)");
  }
  check_header(parts.header.data(), parts.size);
  check_crc(parts.footer.data(), crc);
  return std::move(parts.payload);
}

std::size_t remove_stale_tmp_files(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  const std::string base = target.filename().string();
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  const std::string own_pid = std::to_string(::getpid());
  const auto digits = [](std::string_view s) {
    return !s.empty() && s.find_first_not_of("0123456789") == s.npos;
  };
  std::size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    // "<name>.<pid>.<n>.tmp", as atomic_write_parts names its tmp files.
    const std::string name = it->path().filename().string();
    std::string_view rest(name);
    if (!rest.ends_with(".tmp")) continue;
    rest.remove_suffix(4);
    const std::size_t seq_dot = rest.rfind('.');
    if (seq_dot == rest.npos || !digits(rest.substr(seq_dot + 1))) continue;
    const std::string_view head = rest.substr(0, seq_dot);
    const std::size_t pid_dot = head.rfind('.');
    if (pid_dot == head.npos || !digits(head.substr(pid_dot + 1))) continue;
    const std::string_view pid = head.substr(pid_dot + 1);
    const std::string_view written = head.substr(0, pid_dot);
    const bool ours =
        written == base ||
        (written.size() > base.size() && written.starts_with(base) &&
         written[base.size()] == '.');
    // A tmp file of this process may belong to a write still in flight.
    if (!ours || pid == own_pid) continue;
    std::error_code rm_ec;
    if (fs::remove(it->path(), rm_ec)) ++removed;
  }
  return removed;
}

}  // namespace nsync::signal
