// Binary frame-ingest wire protocol ("NSFP") for the fleet daemon.
//
// Many cheap sensor streams funnel into one always-on detection service —
// the NIDS shape.  A client (printer-side acquisition host) speaks this
// protocol to a fleet_daemon over a Unix-domain or TCP socket:
//
//   frame  := magic u32 "NSFP" | version u8 | type u8 | reserved u16
//           | payload_len u32 | payload | crc32(payload) u32
//
// All integers little-endian; payloads are encoded with the
// signal/checkpoint ByteWriter/ByteReader codec, so a SessionSpec on the
// wire is byte-identical to the spec section of a checkpoint file.  The
// payload length is capped (kMaxPayloadBytes) so a hostile length prefix
// can never drive an allocation, and the CRC rejects corruption before
// any payload parsing happens.
//
// Message types (requests 0x0#, replies 0x8#, error 0xFF):
//
//   HELLO        -> HELLO_OK        version/name handshake, fleet summary
//   ADD_SESSION  -> ADD_SESSION_OK  admit a session (full spec on the wire)
//   FEED         -> FEED_OK         stage frames for one channel
//   POLL_STATS   -> STATS           fleet/shard stats (+ session snapshots)
//   EVICT        -> EVICT_OK        evict a session
//   PING         -> PONG            keepalive / liveness probe (echoes nonce)
//   (any)        -> ERROR           typed failure (ErrorCode + message)
//
// Framing errors are split into two classes: *stream-poisoning* ones (bad
// magic, bad version, oversized length, bad CRC) after which the byte
// stream cannot be trusted to resynchronize — the server replies ERROR
// and closes — and *frame-local* ones (unknown type, malformed payload)
// where the frame boundary is still sound and the connection continues.
// fuzz/fuzz_frame_protocol drives arbitrary bytes and chunkings through
// the decoder; it must only ever produce these typed outcomes.
#ifndef NSYNC_ENGINE_WIRE_PROTOCOL_HPP
#define NSYNC_ENGINE_WIRE_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "engine/monitor_engine.hpp"
#include "engine/sharded_fleet.hpp"
#include "signal/signal.hpp"

namespace nsync::engine::wire {

inline constexpr std::uint32_t kMagic = 0x5046534Eu;  // "NSFP" little-endian
/// v2: ADD_SESSION session specs carry the device model key used by the
/// per-device baseline registry (empty string = opted out of adaptation).
/// v3: specs may carry a fusion policy section in the legacy rule slot
/// (weighted fusion); STATS grows fused score + per-channel score/weight
/// telemetry and per-device baseline adaptation counters.
/// v4: PING/PONG keepalive pair; ERROR carries a retry-after-ms hint
/// (kBusy admission rejections); new kBusy/kShardFailed error codes;
/// STATS shard rows carry supervision state (failed/restarts/discarded).
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::size_t kTrailerBytes = 4;  // crc32
/// Hard cap on a frame's payload.  Large enough for a multi-minute
/// reference signal (64 MiB ~ 4M stereo frames), small enough that a
/// forged length prefix cannot OOM the daemon.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kAddSession = 0x02,
  kFeed = 0x03,
  kPollStats = 0x04,
  kEvict = 0x05,
  kPing = 0x06,
  kHelloOk = 0x81,
  kAddSessionOk = 0x82,
  kFeedOk = 0x83,
  kStats = 0x84,
  kEvictOk = 0x85,
  kPong = 0x86,
  kError = 0xFF,
};

enum class ErrorCode : std::uint32_t {
  kBadFrame = 1,     ///< framing violation; the server closes after this
  kBadVersion = 2,   ///< protocol version mismatch (also closes)
  kBadType = 3,      ///< unknown message type (frame skipped)
  kMalformed = 4,    ///< payload did not parse / failed validation
  kUnknownSession = 5,
  kUnknownChannel = 6,
  kChannelMismatch = 7,  ///< frame width differs from the channel's
  kEvicted = 8,
  kOverloaded = 9,   ///< backpressure: queue full under kReject policy
  kInternal = 10,
  kBusy = 11,         ///< admission cap hit; honor Error::retry_after_ms
  kShardFailed = 12,  ///< the session's shard worker failed (supervision)
};

[[nodiscard]] std::string error_code_name(ErrorCode c);

// --- Message payload structs ----------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string client;
};

struct HelloOk {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t shards = 0;
  std::uint64_t sessions = 0;
};

struct AddSession {
  SessionSpec spec;
};

struct AddSessionOk {
  std::uint64_t session = 0;
  std::uint64_t shard = 0;
};

struct Feed {
  std::uint64_t session = 0;
  std::string channel;
  nsync::signal::Signal frames;
};

struct FeedOk {
  std::uint64_t accepted_frames = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t queued_frames = 0;
};

struct PollStats {
  std::uint8_t include_sessions = 0;  ///< 1: append per-session snapshots
};

struct StatsChannel {
  std::string name;
  std::uint8_t alarm = 0;
  std::uint8_t health = 0;  ///< core::ChannelHealth
  double score = 0.0;       ///< normalized OCC margin (1.0 = at threshold)
  double weight = 0.0;      ///< normalized fusion weight (0 when offline)
  std::uint64_t windows = 0;
  std::uint64_t frames_fed = 0;
};

struct StatsSession {
  std::string name;
  std::uint8_t evicted = 0;
  std::uint8_t intrusion = 0;
  std::int64_t first_alarm_window = -1;
  std::string policy;        ///< fusion policy name ("any", "weighted", ...)
  double fused_score = 0.0;  ///< live fused anomaly score
  std::uint64_t windows = 0;
  std::uint64_t frames_fed = 0;
  std::vector<StatsChannel> channels;
};

struct StatsShard {
  std::uint64_t shard = 0;
  std::uint64_t sessions = 0;
  std::uint64_t queued_frames = 0;
  std::uint64_t peak_queued_frames = 0;
  std::uint64_t enqueued_frames = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t rejected_frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t polls = 0;
  std::uint64_t windows = 0;
  std::uint64_t feed_errors = 0;
  std::uint8_t failed = 0;  ///< worker loop died (supervision)
  std::uint64_t restarts = 0;
  std::uint64_t discarded_frames = 0;  ///< backlog dropped at failure
  std::uint64_t checkpoints_written = 0;
  std::uint64_t latency_samples = 0;
  double p50_feed_to_verdict_us = 0.0;
  double p99_feed_to_verdict_us = 0.0;
  std::uint8_t in_flight = 0;
};

/// Per-device baseline adaptation telemetry: how often each (model,
/// sensor-profile) baseline has folded an eligible print vs frozen an
/// ineligible one — operators watch this to spot channels that stopped
/// adapting (every print alarming or unhealthy).
struct StatsBaseline {
  std::uint64_t shard = 0;
  std::string model;
  std::string profile;      ///< channel name (sensor profile)
  std::uint64_t prints = 0; ///< eligible folds accepted, ever
  std::uint64_t frozen = 0; ///< ineligible folds rejected, ever
};

struct Stats {
  std::uint64_t shards = 0;
  std::uint64_t sessions = 0;
  std::uint64_t evicted = 0;
  std::uint64_t windows = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t rejected_frames = 0;
  std::uint64_t queued_frames = 0;
  std::uint8_t busy = 0;
  std::uint64_t failed_shards = 0;
  std::vector<StatsShard> per_shard;
  std::vector<StatsBaseline> baselines;       ///< adaptation counters
  std::vector<StatsSession> sessions_detail;  ///< when requested
};

struct Evict {
  std::uint64_t session = 0;
};

struct EvictOk {};

/// Keepalive / liveness probe.  The server echoes the nonce back in PONG,
/// so a reconnecting client can distinguish "new connection is live" from
/// "stale bytes of an old reply still in flight".
struct Ping {
  std::uint64_t nonce = 0;
};

struct Pong {
  std::uint64_t nonce = 0;
};

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  /// Back-off hint in milliseconds (kBusy admission rejections); 0 = none.
  std::uint32_t retry_after_ms = 0;
};

using Message =
    std::variant<Hello, HelloOk, AddSession, AddSessionOk, Feed, FeedOk,
                 PollStats, Stats, Evict, EvictOk, Ping, Pong, Error>;

[[nodiscard]] MsgType message_type(const Message& m);

/// Encodes a message into one complete wire frame (header+payload+CRC).
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& m);
/// encode() into `out`, replacing its contents and reusing its capacity:
/// a buffer already as large as the frame is not reallocated.  On throw
/// `out` is left empty.
void encode_into(const Message& m, std::vector<std::uint8_t>& out);

// --- Incremental decoder ---------------------------------------------------

enum class DecodeStatus : std::uint8_t {
  kNeedMore,   ///< no complete frame buffered yet
  kFrame,      ///< a message was decoded into `out`
  kBadMagic,   ///< stream poisoned
  kBadVersion, ///< stream poisoned
  kOversized,  ///< length prefix exceeds kMaxPayloadBytes; poisoned
  kBadCrc,     ///< stream poisoned
  kBadType,    ///< unknown type; frame skipped, stream continues
  kMalformed,  ///< payload parse/validation failure; frame skipped
};

[[nodiscard]] std::string decode_status_name(DecodeStatus s);

/// Reassembles frames from an arbitrary chunking of the byte stream.
class FrameDecoder {
 public:
  /// Appends raw bytes from the transport.
  void feed(std::span<const std::uint8_t> bytes);

  /// Tries to decode the next frame.  kNeedMore: call feed() with more
  /// bytes.  kFrame: `out` holds the message.  Poisoning statuses are
  /// sticky — every later call returns the same status and the caller
  /// must drop the connection.  kBadType/kMalformed consume exactly one
  /// frame; decoding continues with the next.
  DecodeStatus next(Message& out, std::string* detail = nullptr);

  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet consumed (diagnostics/fuzzing).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
  DecodeStatus poison_status_ = DecodeStatus::kNeedMore;
};

}  // namespace nsync::engine::wire

#endif  // NSYNC_ENGINE_WIRE_PROTOCOL_HPP
