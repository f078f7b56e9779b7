#include "engine/wire_protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "engine/session_codec.hpp"
#include "signal/checkpoint.hpp"

namespace nsync::engine::wire {

namespace {

using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;

// One field list per payload, in wire order; FieldWriter runs it to
// encode and FieldReader to decode (see signal/fields.hpp).

template <class Io>
void fields(Io& io, FieldRef<Io, Hello> m) {
  io.pod(m.version);
  io.str(m.client);
}

template <class Io>
void fields(Io& io, FieldRef<Io, HelloOk> m) {
  io.pod(m.version);
  io.pod(m.shards);
  io.pod(m.sessions);
}

template <class Io>
void fields(Io& io, FieldRef<Io, AddSession> m) {
  io.codec(m.spec, save_session_spec, load_session_spec);
}

template <class Io>
void fields(Io& io, FieldRef<Io, AddSessionOk> m) {
  io.pod(m.session);
  io.pod(m.shard);
}

template <class Io>
void fields(Io& io, FieldRef<Io, Feed> m) {
  io.pod(m.session);
  io.str(m.channel);
  io.signal(m.frames);
}

template <class Io>
void fields(Io& io, FieldRef<Io, FeedOk> m) {
  io.pod(m.accepted_frames);
  io.pod(m.shed_frames);
  io.pod(m.queued_frames);
}

template <class Io>
void fields(Io& io, FieldRef<Io, PollStats> m) {
  io.flag(m.include_sessions, "POLL_STATS include_sessions flag");
}

template <class Io>
void fields(Io& io, FieldRef<Io, StatsShard> s) {
  io.pod(s.shard);
  io.pod(s.sessions);
  io.pod(s.queued_frames);
  io.pod(s.peak_queued_frames);
  io.pod(s.enqueued_frames);
  io.pod(s.shed_frames);
  io.pod(s.rejected_frames);
  io.pod(s.batches);
  io.pod(s.polls);
  io.pod(s.windows);
  io.pod(s.feed_errors);
  io.flag(s.failed, "STATS shard failed flag");
  io.pod(s.restarts);
  io.pod(s.discarded_frames);
  io.pod(s.checkpoints_written);
  io.pod(s.latency_samples);
  io.pod(s.p50_feed_to_verdict_us);
  io.pod(s.p99_feed_to_verdict_us);
  io.flag(s.in_flight, "STATS shard in_flight flag");
}

template <class Io>
void fields(Io& io, FieldRef<Io, StatsChannel> c) {
  io.str(c.name);
  io.flag(c.alarm, "STATS channel alarm flag");
  io.enumeration(c.health, core::ChannelHealth::kHealthy,
                 core::ChannelHealth::kOffline, "STATS channel health");
  io.pod(c.score);
  io.pod(c.weight);
  io.pod(c.windows);
  io.pod(c.frames_fed);
}

template <class Io>
void fields(Io& io, FieldRef<Io, StatsBaseline> b) {
  io.pod(b.shard);
  io.str(b.model);
  io.str(b.profile);
  io.pod(b.prints);
  io.pod(b.frozen);
}

template <class Io>
void fields(Io& io, FieldRef<Io, StatsSession> s) {
  io.str(s.name);
  io.flag(s.evicted, "STATS session evicted flag");
  io.flag(s.intrusion, "STATS session intrusion flag");
  io.pod(s.first_alarm_window);
  io.str(s.policy);
  io.pod(s.fused_score);
  io.pod(s.windows);
  io.pod(s.frames_fed);
  io.list(s.channels, "STATS session channel count",
          [&](auto& c) { fields(io, c); });
}

template <class Io>
void fields(Io& io, FieldRef<Io, Stats> m) {
  io.pod(m.shards);
  io.pod(m.sessions);
  io.pod(m.evicted);
  io.pod(m.windows);
  io.pod(m.shed_frames);
  io.pod(m.rejected_frames);
  io.pod(m.queued_frames);
  io.flag(m.busy, "STATS busy flag");
  io.pod(m.failed_shards);
  io.list(m.per_shard, "STATS shard count", [&](auto& s) { fields(io, s); });
  io.list(m.baselines, "STATS baseline count",
          [&](auto& b) { fields(io, b); });
  io.list(m.sessions_detail, "STATS session count",
          [&](auto& s) { fields(io, s); });
}

template <class Io>
void fields(Io& io, FieldRef<Io, Evict> m) {
  io.pod(m.session);
}

template <class Io>
void fields(Io&, FieldRef<Io, EvictOk>) {}

template <class Io>
void fields(Io& io, FieldRef<Io, Ping> m) {
  io.pod(m.nonce);
}

template <class Io>
void fields(Io& io, FieldRef<Io, Pong> m) {
  io.pod(m.nonce);
}

template <class Io>
void fields(Io& io, FieldRef<Io, Error> m) {
  io.enumeration(m.code, ErrorCode::kBadFrame, ErrorCode::kShardFailed,
                 "ERROR code");
  io.str(m.message);
  io.pod(m.retry_after_ms);
}

/// The MsgType of each Message alternative, in variant order: the one
/// place a type byte is tied to its payload.
constexpr std::array kTypes{
    MsgType::kHello,        MsgType::kHelloOk,  MsgType::kAddSession,
    MsgType::kAddSessionOk, MsgType::kFeed,     MsgType::kFeedOk,
    MsgType::kPollStats,    MsgType::kStats,    MsgType::kEvict,
    MsgType::kEvictOk,      MsgType::kPing,     MsgType::kPong,
    MsgType::kError,
};
static_assert(kTypes.size() == std::variant_size_v<Message>);

/// Parses one payload into alternative `index`; throws CheckpointError on
/// any malformed content (including trailing bytes).
template <std::size_t... I>
Message load_payload(std::size_t index, std::span<const std::uint8_t> payload,
                     std::index_sequence<I...>) {
  ByteReader r(payload);
  FieldReader io(r);
  Message m;
  ((I == index ? fields(io, m.emplace<I>()) : void()), ...);
  r.finish();
  return m;
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::string error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadFrame:
      return "bad-frame";
    case ErrorCode::kBadVersion:
      return "bad-version";
    case ErrorCode::kBadType:
      return "bad-type";
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kUnknownSession:
      return "unknown-session";
    case ErrorCode::kUnknownChannel:
      return "unknown-channel";
    case ErrorCode::kChannelMismatch:
      return "channel-mismatch";
    case ErrorCode::kEvicted:
      return "evicted";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kShardFailed:
      return "shard-failed";
  }
  return "unknown";
}

std::string decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kFrame:
      return "frame";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kOversized:
      return "oversized";
    case DecodeStatus::kBadCrc:
      return "bad-crc";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  return "unknown";
}

MsgType message_type(const Message& m) { return kTypes[m.index()]; }

void encode_into(const Message& m, std::vector<std::uint8_t>& out) {
  // Header first, with the payload length patched in once it is known:
  // the payload is encoded straight into the frame.
  ByteWriter w(std::move(out));
  w.pod<std::uint32_t>(kMagic);
  w.pod<std::uint8_t>(kProtocolVersion);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(message_type(m)));
  w.pod<std::uint16_t>(0);  // reserved
  w.pod<std::uint32_t>(0);  // payload length
  FieldWriter io(w);
  std::visit([&io](const auto& payload) { fields(io, payload); }, m);
  out = w.take();
  const std::size_t payload = out.size() - kHeaderBytes;
  if (payload > kMaxPayloadBytes) {
    out.clear();
    throw CheckpointError(nsync::signal::CheckpointErrorKind::kCorrupt,
                          "wire payload exceeds kMaxPayloadBytes");
  }
  const auto length = static_cast<std::uint32_t>(payload);
  std::memcpy(out.data() + kHeaderBytes - sizeof(length), &length,
              sizeof(length));
  const std::uint32_t crc =
      nsync::signal::crc32(out.data() + kHeaderBytes, payload);
  const auto* crc_bytes = reinterpret_cast<const std::uint8_t*>(&crc);
  out.insert(out.end(), crc_bytes, crc_bytes + sizeof(crc));
}

std::vector<std::uint8_t> encode(const Message& m) {
  std::vector<std::uint8_t> out;
  encode_into(m, out);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return;  // the stream is dead; don't accumulate memory
  // Compact once the consumed prefix dominates, keeping feed() amortized
  // O(n) without reallocating on every frame.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

DecodeStatus FrameDecoder::next(Message& out, std::string* detail) {
  if (poisoned_) return poison_status_;

  const auto poison = [this, detail](DecodeStatus s, const char* why) {
    poisoned_ = true;
    poison_status_ = s;
    buf_.clear();
    pos_ = 0;
    if (detail != nullptr) *detail = why;
    return s;
  };

  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return DecodeStatus::kNeedMore;

  const std::uint8_t* h = buf_.data() + pos_;
  if (read_u32le(h) != kMagic) {
    return poison(DecodeStatus::kBadMagic, "bad magic");
  }
  if (h[4] != kProtocolVersion) {
    return poison(DecodeStatus::kBadVersion, "unsupported protocol version");
  }
  const std::uint8_t type = h[5];
  const std::uint32_t payload_len = read_u32le(h + 8);
  if (payload_len > kMaxPayloadBytes) {
    return poison(DecodeStatus::kOversized, "payload length exceeds cap");
  }

  const std::size_t frame_bytes = kHeaderBytes + payload_len + kTrailerBytes;
  if (avail < frame_bytes) return DecodeStatus::kNeedMore;

  const std::uint8_t* payload = h + kHeaderBytes;
  const std::uint32_t want_crc = read_u32le(payload + payload_len);
  if (nsync::signal::crc32(payload, payload_len) != want_crc) {
    return poison(DecodeStatus::kBadCrc, "payload CRC mismatch");
  }

  // The frame boundary is sound from here on: type/payload errors consume
  // this frame and leave the stream usable.
  pos_ += frame_bytes;

  const auto index = static_cast<std::size_t>(
      std::ranges::find(kTypes, static_cast<MsgType>(type)) - kTypes.begin());
  if (index == kTypes.size()) {
    if (detail != nullptr) *detail = "unknown message type";
    return DecodeStatus::kBadType;
  }
  try {
    out = load_payload(index,
                       std::span<const std::uint8_t>(payload, payload_len),
                       std::make_index_sequence<kTypes.size()>{});
  } catch (const CheckpointError& e) {
    if (detail != nullptr) *detail = e.what();
    return DecodeStatus::kMalformed;
  }
  return DecodeStatus::kFrame;
}

}  // namespace nsync::engine::wire
