// NSFP wire protocol: codec round-trips, incremental decoding under
// arbitrary chunking, framing-error taxonomy, request dispatch, and an
// end-to-end client/server exchange over a real Unix-domain socket.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/fleet_server.hpp"
#include "engine/session_codec.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_client.hpp"
#include "engine/wire_protocol.hpp"
#include "golden_messages.hpp"
#include "signal/checkpoint.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using namespace nsync::engine;
using nsync::signal::Signal;
using nsync::signal::SignalView;

namespace {

/// Minimal valid session spec (DWM config, tiny reference).
SessionSpec tiny_spec(const std::string& name) {
  SessionSpec spec;
  spec.name = name;
  spec.rule = core::FusionRule::kAny;
  ChannelSpec ch;
  ch.name = "ACC";
  ch.reference = Signal(512, 1, 100.0);
  for (std::size_t n = 0; n < 512; ++n) {
    ch.reference(n, 0) = std::sin(0.1 * static_cast<double>(n));
  }
  ch.config.sync = core::SyncMethod::kDwm;
  ch.config.dwm.n_win = 64;
  ch.config.dwm.n_hop = 32;
  ch.config.dwm.n_ext = 24;
  ch.config.dwm.n_sigma = 12.0;
  ch.config.dwm.eta = 0.2;
  ch.thresholds.c_c = 100.0;
  ch.thresholds.h_c = 100.0;
  ch.thresholds.v_c = 100.0;
  spec.channels.push_back(std::move(ch));
  return spec;
}

/// Payload offset of the one byte `change` moves in golden message `name`.
std::size_t field_offset(const std::string& name,
                         const std::function<void(wire::Message&)>& change) {
  for (auto& [file, msg] : golden::golden_messages()) {
    if (file != name) continue;
    const std::vector<std::uint8_t> before = wire::encode(msg);
    change(msg);
    const std::vector<std::uint8_t> after = wire::encode(msg);
    std::size_t off = wire::kHeaderBytes;
    while (off < before.size() && before[off] == after[off]) ++off;
    return off;
  }
  ADD_FAILURE() << "no golden message " << name;
  return 0;
}

/// Decodes one complete frame or reports the status.
wire::DecodeStatus decode_one(const std::vector<std::uint8_t>& bytes,
                              wire::Message& out) {
  wire::FrameDecoder d;
  d.feed(bytes);
  return d.next(out);
}

}  // namespace

// --- Codec round-trips ------------------------------------------------------

TEST(WireProtocol, FeedRoundTripsBitwise) {
  wire::Feed msg;
  msg.session = 42;
  msg.channel = "ACC";
  msg.frames = Signal(17, 3, 250.0);
  for (std::size_t n = 0; n < 17; ++n) {
    for (std::size_t c = 0; c < 3; ++c) {
      msg.frames(n, c) = 0.25 * static_cast<double>(n * 3 + c) - 1.0;
    }
  }
  const std::vector<std::uint8_t> bytes = wire::encode(msg);
  wire::Message out;
  ASSERT_EQ(decode_one(bytes, out), wire::DecodeStatus::kFrame);
  const auto& got = std::get<wire::Feed>(out);
  EXPECT_EQ(got.session, 42u);
  EXPECT_EQ(got.channel, "ACC");
  ASSERT_EQ(got.frames.frames(), 17u);
  ASSERT_EQ(got.frames.channels(), 3u);
  EXPECT_EQ(got.frames.sample_rate(), 250.0);
  EXPECT_EQ(std::memcmp(got.frames.data(), msg.frames.data(),
                        17 * 3 * sizeof(double)),
            0)
      << "frame payloads must round-trip bitwise";
}

TEST(WireProtocol, AddSessionRoundTripsSpec) {
  wire::AddSession msg;
  msg.spec = tiny_spec("printer-9");
  const std::vector<std::uint8_t> bytes = wire::encode(msg);
  wire::Message out;
  ASSERT_EQ(decode_one(bytes, out), wire::DecodeStatus::kFrame);
  const auto& got = std::get<wire::AddSession>(out);
  EXPECT_EQ(got.spec.name, "printer-9");
  ASSERT_EQ(got.spec.channels.size(), 1u);
  EXPECT_EQ(got.spec.channels[0].name, "ACC");
  EXPECT_EQ(got.spec.channels[0].reference.frames(), 512u);
  EXPECT_EQ(got.spec.channels[0].thresholds.c_c, 100.0);
}

TEST(WireProtocol, EveryMessageTypeRoundTrips) {
  std::vector<wire::Message> all;
  all.emplace_back(wire::Hello{wire::kProtocolVersion, "client-x"});
  all.emplace_back(wire::HelloOk{wire::kProtocolVersion, 4, 7});
  {
    wire::AddSession m;
    m.spec = tiny_spec("s");
    all.emplace_back(std::move(m));
  }
  all.emplace_back(wire::AddSessionOk{3, 1});
  {
    wire::Feed m;
    m.session = 1;
    m.channel = "AUD";
    m.frames = Signal(4, 2, 100.0);
    all.emplace_back(std::move(m));
  }
  all.emplace_back(wire::FeedOk{256, 12, 1024});
  all.emplace_back(wire::PollStats{1});
  {
    wire::Stats m;
    m.shards = 2;
    m.sessions = 3;
    wire::StatsShard sh;
    sh.shard = 1;
    sh.windows = 99;
    sh.p99_feed_to_verdict_us = 123.5;
    m.per_shard.push_back(sh);
    wire::StatsSession ss;
    ss.name = "printer-0";
    ss.intrusion = 1;
    ss.first_alarm_window = 64;
    ss.channels.push_back(wire::StatsChannel{"ACC", 1, 0, 10, 320});
    m.sessions_detail.push_back(ss);
    all.emplace_back(std::move(m));
  }
  all.emplace_back(wire::Evict{5});
  all.emplace_back(wire::EvictOk{});
  all.emplace_back(wire::Error{wire::ErrorCode::kOverloaded, "queue full"});

  for (const wire::Message& m : all) {
    const std::vector<std::uint8_t> bytes = wire::encode(m);
    wire::Message out;
    ASSERT_EQ(decode_one(bytes, out), wire::DecodeStatus::kFrame)
        << "type 0x" << std::hex
        << static_cast<int>(wire::message_type(m));
    EXPECT_EQ(wire::message_type(out), wire::message_type(m));
  }
}

TEST(WireProtocol, AddSessionRoundTripsWeightedPolicy) {
  wire::AddSession msg;
  msg.spec = tiny_spec("printer-w");
  core::WeightedPolicyConfig cfg;
  cfg.threshold = 0.8125;
  msg.spec.policy = std::make_shared<core::WeightedPolicy>(
      cfg, std::vector<std::pair<std::string, double>>{{"ACC", 1.0}});
  const std::vector<std::uint8_t> bytes = wire::encode(msg);
  wire::Message out;
  ASSERT_EQ(decode_one(bytes, out), wire::DecodeStatus::kFrame);
  const auto& got = std::get<wire::AddSession>(out);
  ASSERT_NE(got.spec.policy, nullptr);
  const auto* weighted =
      dynamic_cast<const core::WeightedPolicy*>(got.spec.policy.get());
  ASSERT_NE(weighted, nullptr);
  EXPECT_TRUE(weighted->trained());
  EXPECT_EQ(weighted->config().threshold, 0.8125);
  ASSERT_EQ(weighted->weights().size(), 1u);
  EXPECT_EQ(weighted->weights()[0].first, "ACC");
  EXPECT_EQ(weighted->weights()[0].second, 1.0);
}

TEST(WireProtocol, StatsRoundTripsFusionAndBaselineTelemetry) {
  wire::Stats m;
  m.shards = 1;
  m.sessions = 1;
  wire::StatsBaseline base;
  base.shard = 1;
  base.model = "UM3";
  base.profile = "ACC";
  base.prints = 12;
  base.frozen = 3;
  m.baselines.push_back(base);
  wire::StatsSession ss;
  ss.name = "printer-0";
  ss.intrusion = 1;
  ss.first_alarm_window = 64;
  ss.policy = "weighted";
  ss.fused_score = 1.328125;
  ss.channels.push_back(
      wire::StatsChannel{"ACC", 1, 0, 1.75, 0.59375, 10, 320});
  m.sessions_detail.push_back(ss);

  const std::vector<std::uint8_t> bytes = wire::encode(m);
  wire::Message out;
  ASSERT_EQ(decode_one(bytes, out), wire::DecodeStatus::kFrame);
  const auto& got = std::get<wire::Stats>(out);
  ASSERT_EQ(got.baselines.size(), 1u);
  EXPECT_EQ(got.baselines[0].shard, 1u);
  EXPECT_EQ(got.baselines[0].model, "UM3");
  EXPECT_EQ(got.baselines[0].profile, "ACC");
  EXPECT_EQ(got.baselines[0].prints, 12u);
  EXPECT_EQ(got.baselines[0].frozen, 3u);
  ASSERT_EQ(got.sessions_detail.size(), 1u);
  EXPECT_EQ(got.sessions_detail[0].policy, "weighted");
  EXPECT_EQ(got.sessions_detail[0].fused_score, 1.328125);
  ASSERT_EQ(got.sessions_detail[0].channels.size(), 1u);
  EXPECT_EQ(got.sessions_detail[0].channels[0].score, 1.75);
  EXPECT_EQ(got.sessions_detail[0].channels[0].weight, 0.59375);
}

// --- Incremental decoding ---------------------------------------------------

TEST(WireProtocol, DecodesByteByByte) {
  wire::Feed msg;
  msg.session = 7;
  msg.channel = "AUD";
  msg.frames = Signal(9, 2, 100.0);
  const std::vector<std::uint8_t> bytes = wire::encode(msg);

  wire::FrameDecoder d;
  wire::Message out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    d.feed(std::span<const std::uint8_t>(&bytes[i], 1));
    ASSERT_EQ(d.next(out), wire::DecodeStatus::kNeedMore) << "byte " << i;
  }
  d.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
  ASSERT_EQ(d.next(out), wire::DecodeStatus::kFrame);
  EXPECT_EQ(std::get<wire::Feed>(out).session, 7u);
}

TEST(WireProtocol, DecodesBackToBackFramesFromOneChunk) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    wire::Evict m;
    m.session = static_cast<std::uint64_t>(i);
    const std::vector<std::uint8_t> f = wire::encode(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  wire::FrameDecoder d;
  d.feed(stream);
  wire::Message out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(d.next(out), wire::DecodeStatus::kFrame);
    EXPECT_EQ(std::get<wire::Evict>(out).session, i);
  }
  EXPECT_EQ(d.next(out), wire::DecodeStatus::kNeedMore);
  EXPECT_EQ(d.buffered(), 0u);
}

// --- Framing error taxonomy -------------------------------------------------

TEST(WireProtocol, BadMagicPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = wire::encode(wire::Evict{1});
  bytes[0] ^= 0xFF;
  wire::FrameDecoder d;
  d.feed(bytes);
  wire::Message out;
  EXPECT_EQ(d.next(out), wire::DecodeStatus::kBadMagic);
  EXPECT_TRUE(d.poisoned());
  // Sticky: feeding a perfectly valid frame afterwards changes nothing.
  d.feed(wire::encode(wire::Evict{2}));
  EXPECT_EQ(d.next(out), wire::DecodeStatus::kBadMagic);
}

TEST(WireProtocol, BadVersionPoisonsTheStream) {
  std::vector<std::uint8_t> bytes = wire::encode(wire::Evict{1});
  bytes[4] = wire::kProtocolVersion + 1;
  wire::Message out;
  EXPECT_EQ(decode_one(bytes, out), wire::DecodeStatus::kBadVersion);
}

TEST(WireProtocol, OversizedLengthPrefixPoisonsWithoutAllocating) {
  std::vector<std::uint8_t> bytes = wire::encode(wire::Evict{1});
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  wire::Message out;
  EXPECT_EQ(decode_one(bytes, out), wire::DecodeStatus::kOversized);
}

TEST(WireProtocol, CorruptPayloadFailsCrc) {
  std::vector<std::uint8_t> bytes = wire::encode(wire::Evict{1});
  bytes[wire::kHeaderBytes] ^= 0x01;  // flip one payload bit
  wire::Message out;
  EXPECT_EQ(decode_one(bytes, out), wire::DecodeStatus::kBadCrc);
}

TEST(WireProtocol, UnknownTypeSkipsFrameAndContinues) {
  std::vector<std::uint8_t> bad = wire::encode(wire::Evict{1});
  bad[5] = 0x7E;  // unknown type; header is not CRC-protected, payload is
  std::vector<std::uint8_t> stream = bad;
  const std::vector<std::uint8_t> good = wire::encode(wire::Evict{2});
  stream.insert(stream.end(), good.begin(), good.end());

  wire::FrameDecoder d;
  d.feed(stream);
  wire::Message out;
  EXPECT_EQ(d.next(out), wire::DecodeStatus::kBadType);
  EXPECT_FALSE(d.poisoned());
  ASSERT_EQ(d.next(out), wire::DecodeStatus::kFrame);
  EXPECT_EQ(std::get<wire::Evict>(out).session, 2u);
}

TEST(WireProtocol, MalformedPayloadSkipsFrameAndContinues) {
  // An EVICT frame whose payload is one byte short of a u64: the CRC is
  // valid (we recompute it), the payload parse fails.
  nsync::signal::ByteWriter w;
  w.pod<std::uint32_t>(wire::kMagic);
  w.pod<std::uint8_t>(wire::kProtocolVersion);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(wire::MsgType::kEvict));
  w.pod<std::uint16_t>(0);
  const std::vector<std::uint8_t> payload = {1, 2, 3};  // not a u64
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.pod<std::uint32_t>(nsync::signal::crc32(payload.data(), payload.size()));
  std::vector<std::uint8_t> stream = w.take();
  const std::vector<std::uint8_t> good = wire::encode(wire::Evict{9});
  stream.insert(stream.end(), good.begin(), good.end());

  wire::FrameDecoder d;
  d.feed(stream);
  wire::Message out;
  std::string detail;
  EXPECT_EQ(d.next(out, &detail), wire::DecodeStatus::kMalformed);
  EXPECT_FALSE(detail.empty());
  ASSERT_EQ(d.next(out), wire::DecodeStatus::kFrame);
  EXPECT_EQ(std::get<wire::Evict>(out).session, 9u);

  // Committed golden frames with one flag or enum byte set out of range,
  // CRC recomputed: each is frame-local kMalformed.
  const auto stats = [](wire::Message& m) -> wire::Stats& {
    return std::get<wire::Stats>(m);
  };
  struct Case {
    const char* golden;
    const char* field;
    std::function<void(wire::Message&)> change;  // locates the byte
    std::uint8_t bad;
  };
  const Case cases[] = {
      {"stats.nsfp", "busy", [&](wire::Message& m) { stats(m).busy = 0; }, 2},
      {"stats.nsfp", "in_flight",
       [&](wire::Message& m) { stats(m).per_shard[0].in_flight = 0; }, 2},
      {"stats.nsfp", "evicted",
       [&](wire::Message& m) { stats(m).sessions_detail[0].evicted = 1; }, 2},
      {"stats.nsfp", "intrusion",
       [&](wire::Message& m) { stats(m).sessions_detail[0].intrusion = 0; },
       2},
      {"stats.nsfp", "alarm",
       [&](wire::Message& m) {
         stats(m).sessions_detail[0].channels[0].alarm = 0;
       },
       2},
      {"stats.nsfp", "health",
       [&](wire::Message& m) {
         stats(m).sessions_detail[0].channels[1].health = 0;
       },
       static_cast<std::uint8_t>(core::ChannelHealth::kOffline) + 1},
      {"add_session.nsfp", "use_fft",
       [](wire::Message& m) {
         std::get<wire::AddSession>(m).spec.channels[0].config.dwm.tde.use_fft =
             false;
       },
       2},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> frame = golden::read_golden(c.golden);
    frame[field_offset(c.golden, c.change)] = c.bad;
    const std::size_t len = frame.size() - wire::kHeaderBytes - 4;
    const std::uint32_t crc =
        nsync::signal::crc32(frame.data() + wire::kHeaderBytes, len);
    std::memcpy(frame.data() + frame.size() - 4, &crc, sizeof(crc));
    wire::FrameDecoder fd;
    fd.feed(frame);
    fd.feed(good);
    EXPECT_EQ(fd.next(out, &detail), wire::DecodeStatus::kMalformed)
        << c.field;
    EXPECT_NE(detail.find("out of range"), std::string::npos) << detail;
    ASSERT_EQ(fd.next(out), wire::DecodeStatus::kFrame) << c.field;
    EXPECT_EQ(std::get<wire::Evict>(out).session, 9u);
  }
}

TEST(WireProtocol, PolicyUnknownSubVersionIsFrameLocalMalformed) {
  // An ADD_SESSION from a future client whose policy section carries an
  // unknown sub-version: the framing is fine, only the payload cannot be
  // interpreted.  Per the two-tier error discipline that is a frame-local
  // kMalformed — the stream must NOT be poisoned and the next frame
  // decodes normally.
  wire::AddSession msg;
  msg.spec = tiny_spec("fwd-compat");
  msg.spec.policy = std::make_shared<core::WeightedPolicy>();
  std::vector<std::uint8_t> frame = wire::encode(msg);
  // Locate the policy marker in the payload (nothing before it — two
  // short strings and a frame header — can contain four 0xFF bytes) and
  // bump the sub-version that follows it.
  const std::uint8_t marker[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  const auto it =
      std::search(frame.begin() + wire::kHeaderBytes, frame.end(),
                  std::begin(marker), std::end(marker));
  ASSERT_NE(it, frame.end()) << "policy marker not found in the payload";
  *(it + 4) = engine::kFusionPolicyVersion + 1;
  // Recompute the payload CRC so the sub-version is the only problem.
  const std::size_t payload_len = frame.size() - wire::kHeaderBytes - 4;
  const std::uint32_t crc =
      nsync::signal::crc32(frame.data() + wire::kHeaderBytes, payload_len);
  std::memcpy(frame.data() + frame.size() - 4, &crc, sizeof(crc));

  // Byte-at-a-time reassembly: kNeedMore until the very last byte.
  wire::FrameDecoder d;
  wire::Message out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    d.feed(std::span<const std::uint8_t>(&frame[i], 1));
    ASSERT_EQ(d.next(out), wire::DecodeStatus::kNeedMore) << "byte " << i;
  }
  d.feed(std::span<const std::uint8_t>(&frame.back(), 1));
  std::string detail;
  EXPECT_EQ(d.next(out, &detail), wire::DecodeStatus::kMalformed);
  EXPECT_NE(detail.find("sub-version"), std::string::npos) << detail;
  EXPECT_FALSE(d.poisoned());
  d.feed(wire::encode(wire::Evict{3}));
  ASSERT_EQ(d.next(out), wire::DecodeStatus::kFrame);
  EXPECT_EQ(std::get<wire::Evict>(out).session, 3u);
}

TEST(WireProtocol, TrailingGarbageAfterPayloadIsMalformed) {
  // Valid EVICT payload plus trailing bytes, CRC recomputed to match:
  // the loader's finish() must reject it.
  nsync::signal::ByteWriter pw;
  pw.pod<std::uint64_t>(1);
  pw.pod<std::uint8_t>(0xAA);  // trailing garbage
  const std::vector<std::uint8_t> payload(pw.data().begin(), pw.data().end());
  nsync::signal::ByteWriter w;
  w.pod<std::uint32_t>(wire::kMagic);
  w.pod<std::uint8_t>(wire::kProtocolVersion);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(wire::MsgType::kEvict));
  w.pod<std::uint16_t>(0);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.pod<std::uint32_t>(nsync::signal::crc32(payload.data(), payload.size()));
  wire::Message out;
  EXPECT_EQ(decode_one(w.take(), out), wire::DecodeStatus::kMalformed);
}

// --- Request dispatch (no transport) ----------------------------------------

TEST(FleetServerDispatch, FullRequestSurface) {
  ShardedFleetOptions opts;
  opts.shards = 2;
  ShardedFleet fleet(opts);

  // HELLO
  {
    const wire::Message r = FleetServer::handle(fleet, wire::Hello{});
    const auto& ok = std::get<wire::HelloOk>(r);
    EXPECT_EQ(ok.shards, 2u);
    EXPECT_EQ(ok.sessions, 0u);
  }
  // HELLO with the wrong version
  {
    wire::Hello h;
    h.version = 99;
    const wire::Message r = FleetServer::handle(fleet, h);
    EXPECT_EQ(std::get<wire::Error>(r).code, wire::ErrorCode::kBadVersion);
  }
  // ADD_SESSION
  {
    wire::AddSession a;
    a.spec = tiny_spec("p0");
    const wire::Message r = FleetServer::handle(fleet, a);
    const auto& ok = std::get<wire::AddSessionOk>(r);
    EXPECT_EQ(ok.session, 0u);
    EXPECT_EQ(ok.shard, 0u);
  }
  // ADD_SESSION with an invalid spec (no channels)
  {
    wire::AddSession a;
    a.spec.name = "empty";
    const wire::Message r = FleetServer::handle(fleet, a);
    EXPECT_EQ(std::get<wire::Error>(r).code, wire::ErrorCode::kMalformed);
  }
  // FEED ok
  {
    wire::Feed f;
    f.session = 0;
    f.channel = "ACC";
    f.frames = Signal(32, 1, 100.0);
    const wire::Message r = FleetServer::handle(fleet, f);
    EXPECT_EQ(std::get<wire::FeedOk>(r).accepted_frames, 32u);
  }
  // FEED typed failures
  {
    wire::Feed f;
    f.session = 9;
    f.channel = "ACC";
    f.frames = Signal(1, 1, 100.0);
    EXPECT_EQ(std::get<wire::Error>(FleetServer::handle(fleet, f)).code,
              wire::ErrorCode::kUnknownSession);
    f.session = 0;
    f.channel = "MAG";
    EXPECT_EQ(std::get<wire::Error>(FleetServer::handle(fleet, f)).code,
              wire::ErrorCode::kUnknownChannel);
    f.channel = "ACC";
    f.frames = Signal(1, 3, 100.0);
    EXPECT_EQ(std::get<wire::Error>(FleetServer::handle(fleet, f)).code,
              wire::ErrorCode::kChannelMismatch);
  }
  // POLL_STATS with session detail
  {
    wire::PollStats p;
    p.include_sessions = 1;
    fleet.flush();
    const wire::Message r = FleetServer::handle(fleet, p);
    const auto& st = std::get<wire::Stats>(r);
    EXPECT_EQ(st.shards, 2u);
    ASSERT_EQ(st.sessions_detail.size(), 1u);
    EXPECT_EQ(st.sessions_detail[0].name, "p0");
    EXPECT_EQ(st.sessions_detail[0].frames_fed, 32u);
  }
  // EVICT + feed-after-evict
  {
    EXPECT_TRUE(std::holds_alternative<wire::EvictOk>(
        FleetServer::handle(fleet, wire::Evict{0})));
    wire::Feed f;
    f.session = 0;
    f.channel = "ACC";
    f.frames = Signal(1, 1, 100.0);
    EXPECT_EQ(std::get<wire::Error>(FleetServer::handle(fleet, f)).code,
              wire::ErrorCode::kEvicted);
    EXPECT_EQ(std::get<wire::Error>(
                  FleetServer::handle(fleet, wire::Evict{5}))
                  .code,
              wire::ErrorCode::kUnknownSession);
  }
  // A reply type sent as a request is misuse, not a crash.
  {
    const wire::Message r = FleetServer::handle(fleet, wire::FeedOk{});
    EXPECT_EQ(std::get<wire::Error>(r).code, wire::ErrorCode::kBadType);
  }
}

// --- End-to-end over a Unix-domain socket -----------------------------------

TEST(FleetServerSocket, EndToEndOverUds) {
  const std::string sock =
      (std::filesystem::temp_directory_path() /
       ("nsync_wire_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ShardedFleetOptions fopts;
  fopts.shards = 2;
  ShardedFleet fleet(fopts);
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();

  {
    WireClient client = WireClient::connect_uds(sock);
    const wire::HelloOk hello = client.hello("test");
    EXPECT_EQ(hello.shards, 2u);

    const wire::AddSessionOk added = client.add_session(tiny_spec("net-0"));
    EXPECT_EQ(added.session, 0u);

    Signal frames(128, 1, 100.0);
    for (std::size_t n = 0; n < 128; ++n) {
      frames(n, 0) = std::sin(0.1 * static_cast<double>(n));
    }
    const wire::FeedOk fed = client.feed(0, "ACC", frames);
    EXPECT_EQ(fed.accepted_frames, 128u);

    // Drain, then confirm the daemon-side engine saw every frame.
    fleet.flush();
    const wire::Stats stats = client.poll_stats(true);
    ASSERT_EQ(stats.sessions_detail.size(), 1u);
    EXPECT_EQ(stats.sessions_detail[0].frames_fed, 128u);
    EXPECT_EQ(stats.queued_frames, 0u);

    EXPECT_THROW(
        { (void)client.feed(3, "ACC", frames); }, WireError);
    client.evict(0);
    try {
      (void)client.feed(0, "ACC", frames);
      FAIL() << "feeding an evicted session must fail";
    } catch (const WireError& e) {
      EXPECT_EQ(e.code(), wire::ErrorCode::kEvicted);
    }
  }

  // A second client reuses the same socket after the first disconnected.
  {
    WireClient client = WireClient::connect_uds(sock);
    EXPECT_EQ(client.hello("again").sessions, 1u);
  }
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(FleetServerSocket, PoisonedStreamGetsErrorReplyThenClose) {
  const std::string sock =
      (std::filesystem::temp_directory_path() /
       ("nsync_wire_poison_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();

  // Hand-rolled socket so we can put corrupt bytes on the wire.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  std::vector<std::uint8_t> bad = wire::encode(wire::Evict{1});
  bad[wire::kHeaderBytes] ^= 0x01;  // payload corruption -> CRC mismatch
  ASSERT_EQ(::write(fd, bad.data(), bad.size()),
            static_cast<ssize_t>(bad.size()));

  // The server must reply with exactly one ERROR frame, then close.
  wire::FrameDecoder d;
  std::vector<std::uint8_t> buf(4096);
  bool saw_error = false;
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n == 0) {
      closed = true;
      break;
    }
    ASSERT_GT(n, 0);
    d.feed(std::span<const std::uint8_t>(buf.data(),
                                         static_cast<std::size_t>(n)));
    wire::Message out;
    while (d.next(out) == wire::DecodeStatus::kFrame) {
      const auto& err = std::get<wire::Error>(out);
      EXPECT_EQ(err.code, wire::ErrorCode::kBadFrame);
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(closed) << "server must close a poisoned connection";
  ::close(fd);

  // The listener itself is unharmed: a fresh well-formed client still works.
  WireClient client = WireClient::connect_uds(sock);
  EXPECT_EQ(client.hello("post-poison").sessions, 0u);
  server.stop();
}
