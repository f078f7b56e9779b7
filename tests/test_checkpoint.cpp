// Tests for the crash-safe checkpoint subsystem: the byte codec and
// container framing, per-class save/restore round-trips, typed rejection
// of malformed files, write atomicity, and the headline recovery property
// — kill the fleet at any point, restore the last checkpoint, replay the
// frames fed since, and every detection, health state, fused verdict and
// first_alarm_window is bitwise identical to a run that never stopped.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/detection_core.hpp"
#include "core/dwm.hpp"
#include "core/fusion.hpp"
#include "core/health.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/session_codec.hpp"
#include "engine/sharded_fleet.hpp"
#include "eval/setup.hpp"
#include "runtime/thread_pool.hpp"
#include "sensors/fault_injector.hpp"
#include "sensors/side_channel.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "test_support.hpp"

namespace nsync {
namespace {

using nsync::core::ChannelHealth;
using nsync::core::ChannelHealthMonitor;
using nsync::core::DetectionCore;
using nsync::core::NsyncConfig;
using nsync::core::NsyncIds;
using nsync::core::RealtimeMonitor;
using nsync::core::StreamingMinFilter;
using nsync::core::SyncMethod;
using nsync::core::Thresholds;
using nsync::engine::ChannelSpec;
using nsync::engine::MonitorEngine;
using nsync::engine::SessionSnapshot;
using nsync::engine::SessionSpec;
using nsync::engine::ShardedFleet;
using nsync::engine::ShardedFleetOptions;
using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;
using nsync::test_support::snapshots;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Codec and container

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32/IEEE check value.
  const char* s = "123456789";
  EXPECT_EQ(nsync::signal::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(nsync::signal::crc32(s, 0), 0x00000000u);
}

TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  // Every length 0..4097 at every start offset mod 8: the slice-by-8 loop,
  // its byte tail and unaligned loads against the bit-at-a-time definition
  // (whose running state yields every prefix CRC in one pass).
  constexpr std::size_t kMaxLen = 4097;
  Rng rng(2024);
  std::vector<std::uint8_t> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(nsync::signal::crc32(p, len), state ^ 0xFFFFFFFFu)
          << "offset " << offset << ", length " << len;
      if (len == kMaxLen) break;
      state ^= p[len];
      for (int k = 0; k < 8; ++k) {
        state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
      }
    }
  }
}

TEST(ByteCodec, PodArrayStringSignalRoundTrip) {
  ByteWriter w;
  w.pod<std::uint64_t>(0xDEADBEEFCAFEF00Dull);
  w.pod<double>(-0.0);
  const std::vector<double> doubles = {1.5, -2.25, 0.0, 1e-300};
  w.f64_array(doubles);
  const std::vector<std::uint8_t> bytes = {0, 1, 255};
  w.u8_array(bytes);
  w.str("channel/ACC");
  Signal sig(5, 2, 250.0);
  for (std::size_t n = 0; n < 5; ++n) {
    sig(n, 0) = static_cast<double>(n);
    sig(n, 1) = -static_cast<double>(n);
  }
  w.signal(SignalView(sig));

  ByteReader r(w.data());
  EXPECT_EQ(r.pod<std::uint64_t>(), 0xDEADBEEFCAFEF00Dull);
  const double neg_zero = r.pod<double>();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // raw-bit round-trip, not text
  EXPECT_EQ(r.f64_array(), doubles);
  EXPECT_EQ(r.u8_array(), bytes);
  EXPECT_EQ(r.str(), "channel/ACC");
  const Signal back = r.signal();
  ASSERT_EQ(back.frames(), sig.frames());
  ASSERT_EQ(back.channels(), sig.channels());
  EXPECT_EQ(back.sample_rate(), sig.sample_rate());
  for (std::size_t n = 0; n < 5; ++n) {
    EXPECT_EQ(back(n, 0), sig(n, 0));
    EXPECT_EQ(back(n, 1), sig(n, 1));
  }
  EXPECT_NO_THROW(r.finish());
}

TEST(ByteCodec, ReaderRejectsTruncationAndTrailingGarbage) {
  ByteWriter w;
  w.pod<std::uint32_t>(42);
  {
    ByteReader r(w.data());
    EXPECT_THROW((void)r.pod<std::uint64_t>(), CheckpointError);
  }
  {
    // Array length field claiming more elements than bytes remain.
    ByteWriter w2;
    w2.pod<std::uint64_t>(1u << 30);  // "2^30 doubles follow" (they don't)
    ByteReader r(w2.data());
    try {
      (void)r.f64_array();
      FAIL() << "oversized array accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kTruncated);
    }
  }
  {
    ByteReader r(w.data());
    (void)r.pod<std::uint16_t>();
    try {
      r.finish();
      FAIL() << "trailing bytes accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
}

TEST(ByteCodec, SignalRejectsOverflowingFrameByChannelProduct) {
  // Forged header: frames = 2^62, channels = 4, zero samples.  The naive
  // `frames * channels` check wraps to 0 and would accept a Signal that
  // claims 2^62 frames over no backing storage — every later window read
  // would be a heap out-of-bounds access.
  ByteWriter w;
  w.pod<std::uint64_t>(1ull << 62);  // frames
  w.pod<std::uint64_t>(4);           // channels
  w.pod<double>(100.0);              // sample rate
  w.f64_array({});                   // zero samples
  ByteReader r(w.data());
  try {
    (void)r.signal();
    FAIL() << "overflowing frames*channels accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }

  // Sample count that is not a whole number of frames is equally corrupt.
  ByteWriter w2;
  w2.pod<std::uint64_t>(2);  // frames
  w2.pod<std::uint64_t>(3);  // channels
  w2.pod<double>(100.0);
  w2.f64_array(std::vector<double>(5, 0.0));  // 5 % 3 != 0
  ByteReader r2(w2.data());
  try {
    (void)r2.signal();
    FAIL() << "ragged sample count accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }
}

TEST(RingBufferCheckpoint, RestoreRejectsOverflowingSpan) {
  // Forged blob: empty retained vector under a [start, end) span of 2^63
  // frames.  `(end - start) * channels_` wraps to 0 for channels_ == 2,
  // which would admit a ring claiming ~2^63 retained frames over empty
  // storage.
  nsync::signal::FrameRingBuffer rb(2, 100.0);
  ByteWriter w;
  w.pod<std::uint64_t>(2);            // channels
  w.pod<double>(100.0);               // sample rate
  w.pod<std::uint64_t>(0);            // start
  w.pod<std::uint64_t>(1ull << 63);   // end
  w.f64_array({});                    // empty retained data
  ByteReader r(w.data());
  try {
    rb.restore_state(r);
    FAIL() << "overflowing retained span accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }
  EXPECT_EQ(rb.retained_frames(), 0u);  // unchanged by the failed restore
}

TEST(ByteCodec, SectionsFrameAndValidateTheirPayload) {
  ByteWriter w;
  const std::size_t tok = w.begin_section(7);
  w.pod<std::uint32_t>(123);
  w.end_section(tok);
  w.pod<std::uint8_t>(9);  // sibling data after the section

  ByteReader r(w.data());
  ByteReader inner = r.section(7);
  EXPECT_EQ(inner.pod<std::uint32_t>(), 123u);
  EXPECT_NO_THROW(inner.finish());
  EXPECT_EQ(r.pod<std::uint8_t>(), 9);

  // Wrong id is a structural error.
  ByteReader r2(w.data());
  try {
    (void)r2.section(8);
    FAIL() << "wrong section id accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
  }
}

TEST(Container, FramesAndValidates) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> file = nsync::signal::frame_checkpoint(payload);
  const auto back = nsync::signal::unframe_checkpoint(file);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), back.begin(),
                         back.end()));

  auto expect_kind = [](std::vector<std::uint8_t> f, CheckpointErrorKind k,
                        const char* what) {
    try {
      (void)nsync::signal::unframe_checkpoint(f);
      FAIL() << what << " accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), k) << what << ": " << e.what();
    }
  };
  // Bad magic.
  {
    auto f = file;
    f[0] ^= 0xFF;
    expect_kind(f, CheckpointErrorKind::kBadMagic, "bad magic");
  }
  // Future version.
  {
    auto f = file;
    f[4] = 99;
    expect_kind(f, CheckpointErrorKind::kBadVersion, "bad version");
  }
  // Truncations at every prefix length.
  for (std::size_t n = 0; n < file.size(); ++n) {
    expect_kind({file.begin(), file.begin() + static_cast<std::ptrdiff_t>(n)},
                CheckpointErrorKind::kTruncated, "truncated file");
  }
  // Payload corruption must fail the CRC.
  {
    auto f = file;
    f[16 + 2] ^= 0x01;
    expect_kind(f, CheckpointErrorKind::kCorrupt, "flipped payload bit");
  }
  // CRC corruption too.
  {
    auto f = file;
    f.back() ^= 0x01;
    expect_kind(f, CheckpointErrorKind::kCorrupt, "flipped crc bit");
  }
}

TEST(Container, AtomicReplaceKeepsPreviousCheckpointOnFailure) {
  const std::string path = temp_path("atomic.nckp");
  const std::vector<std::uint8_t> first = {10, 20, 30};
  nsync::signal::write_checkpoint_file(path, first);
  ASSERT_EQ(nsync::signal::read_checkpoint_file(path), first);

  // Simulate a crash mid-write: a half-written tmp file next to the real
  // checkpoint.  The previous checkpoint must stay loadable, and the next
  // successful write must replace both.
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "garbage-partial-write";
  }
  EXPECT_EQ(nsync::signal::read_checkpoint_file(path), first);

  const std::vector<std::uint8_t> second = {7, 7, 7, 7};
  nsync::signal::write_checkpoint_file(path, second);
  EXPECT_EQ(nsync::signal::read_checkpoint_file(path), second);

  // Unwritable directory -> kIo, file untouched.
  try {
    nsync::signal::write_checkpoint_file(
        temp_path("no-such-dir/x/y/z.nckp"), second);
    FAIL() << "write into missing directory succeeded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-class round-trips

TEST(RngCheckpoint, StreamContinuesExactly) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) (void)rng.normal();
  const std::string state = rng.save_state();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.normal());

  Rng other(999);
  other.restore_state(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(other.normal(), expected[static_cast<std::size_t>(i)]);
  }
  EXPECT_THROW(other.restore_state("not an engine state"),
               std::invalid_argument);
}

TEST(MinFilterCheckpoint, ContinuesBitwiseAndRejectsGarbage) {
  Rng rng(5);
  StreamingMinFilter a(7);
  for (int i = 0; i < 40; ++i) (void)a.push(rng.normal());

  ByteWriter w;
  a.save_state(w);
  StreamingMinFilter b(7);
  {
    ByteReader r(w.data());
    b.restore_state(r);
    r.finish();
  }
  Rng tail_rng(17);
  for (int i = 0; i < 30; ++i) {
    const double x = tail_rng.normal();
    EXPECT_EQ(a.push(x), b.push(x)) << "sample " << i;
  }

  // Different window -> kMismatch; mangled payload -> kCorrupt.
  StreamingMinFilter c(8);
  {
    ByteReader r(w.data());
    try {
      c.restore_state(r);
      FAIL() << "window mismatch accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
    }
  }
  {
    auto bytes = std::vector<std::uint8_t>(w.data().begin(), w.data().end());
    bytes[8] ^= 0xFF;  // clobber next_/size_ region
    ByteReader r(bytes);
    StreamingMinFilter d(7);
    EXPECT_THROW(d.restore_state(r), CheckpointError);
  }
}

TEST(HealthCheckpoint, StreaksResumeInsteadOfResetting) {
  core::HealthPolicy policy;
  policy.history = 16;
  policy.degraded_fraction = 0.25;
  policy.offline_consecutive = 6;
  policy.recovery_consecutive = 8;

  // Drive the monitor offline, then partway through recovery.
  ChannelHealthMonitor a(policy);
  for (int i = 0; i < 10; ++i) a.observe(false);
  ASSERT_EQ(a.state(), ChannelHealth::kOffline);
  for (int i = 0; i < 5; ++i) a.observe(true);
  ASSERT_EQ(a.state(), ChannelHealth::kOffline);  // 5 of 8 needed
  ASSERT_EQ(a.valid_streak(), 5u);

  ByteWriter w;
  a.save_state(w);
  ChannelHealthMonitor b(policy);
  {
    ByteReader r(w.data());
    b.restore_state(r);
    r.finish();
  }
  // The hysteresis counter must resume at 5, not restart at 0: exactly 3
  // more valid windows reach recovery_consecutive and promote the channel.
  EXPECT_EQ(b.valid_streak(), 5u);
  b.observe(true);
  b.observe(true);
  EXPECT_EQ(b.state(), ChannelHealth::kOffline);
  b.observe(true);
  EXPECT_EQ(b.state(), ChannelHealth::kDegraded);
  // And the uninterrupted monitor agrees window for window.
  a.observe(true);
  a.observe(true);
  a.observe(true);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.invalid_fraction(), b.invalid_fraction());

  // Different policy -> kMismatch.
  core::HealthPolicy other = policy;
  other.recovery_consecutive = 9;
  ChannelHealthMonitor c(other);
  ByteReader r(w.data());
  try {
    c.restore_state(r);
    FAIL() << "policy mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
}

// The fraction-based degraded demotion is gated until the sliding history
// has filled once; a restore mid-warm-up must preserve that gate (filled_
// round-trips), so the restored monitor and an uninterrupted one demote on
// exactly the same window.
TEST(HealthCheckpoint, WarmUpGateSurvivesRestore) {
  core::HealthPolicy policy;
  policy.history = 8;
  policy.degraded_fraction = 0.25;
  policy.offline_consecutive = 100;

  ChannelHealthMonitor a(policy);
  a.observe(false);
  a.observe(true);
  a.observe(false);  // 2 invalid of 3 observed: still warming up
  ASSERT_EQ(a.state(), ChannelHealth::kHealthy);

  ByteWriter w;
  a.save_state(w);
  ChannelHealthMonitor b(policy);
  {
    ByteReader r(w.data());
    b.restore_state(r);
    r.finish();
  }
  EXPECT_EQ(b.state(), ChannelHealth::kHealthy);

  // Feed both the same tail: 5 valid windows complete the history with
  // 2 invalid of 8 = 25% >= degraded_fraction, so BOTH demote exactly on
  // the eighth window — not before.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.observe(true), ChannelHealth::kHealthy);
    EXPECT_EQ(b.observe(true), ChannelHealth::kHealthy);
  }
  EXPECT_EQ(a.observe(true), ChannelHealth::kDegraded);
  EXPECT_EQ(b.observe(true), ChannelHealth::kDegraded);
}

// ---------------------------------------------------------------------------
// Fusion policy codec

TEST(FusionPolicyCodec, VotingKeepsTheLegacyByteEncoding) {
  // A VotingPolicy must serialize to exactly the historical bare rule u32
  // — that is what keeps pre-policy checkpoints, wire peers and the
  // bitwise parity suite byte-compatible.
  for (core::FusionRule rule :
       {core::FusionRule::kAny, core::FusionRule::kMajority,
        core::FusionRule::kAll}) {
    ByteWriter w;
    engine::save_fusion_policy(w, core::VotingPolicy(rule));
    ByteWriter legacy;
    legacy.pod<std::uint32_t>(static_cast<std::uint32_t>(rule));
    const std::vector<std::uint8_t> got(w.data().begin(), w.data().end());
    const std::vector<std::uint8_t> want(legacy.data().begin(),
                                         legacy.data().end());
    EXPECT_EQ(got, want) << core::fusion_rule_name(rule);

    ByteReader r(legacy.data());
    const auto policy = engine::load_fusion_policy(r);
    EXPECT_NO_THROW(r.finish());
    const auto* voting =
        dynamic_cast<const core::VotingPolicy*>(policy.get());
    ASSERT_NE(voting, nullptr);
    EXPECT_EQ(voting->rule(), rule);
  }
}

TEST(FusionPolicyCodec, WeightedRoundTripsConfigAndWeightsBitwise) {
  core::WeightedPolicyConfig cfg;
  cfg.threshold = 0.625;
  cfg.degraded_weight = 0.25;
  cfg.score_cap = 6.5;
  cfg.spread_floor = 0.03125;
  const core::WeightedPolicy policy(cfg, {{"ACC", 0.59375}, {"AUD", 0.40625}});
  ByteWriter w;
  engine::save_fusion_policy(w, policy);
  ByteReader r(w.data());
  const auto loaded = engine::load_fusion_policy(r);
  EXPECT_NO_THROW(r.finish());
  const auto* weighted =
      dynamic_cast<const core::WeightedPolicy*>(loaded.get());
  ASSERT_NE(weighted, nullptr);
  EXPECT_TRUE(weighted->trained());
  EXPECT_EQ(weighted->config().threshold, cfg.threshold);
  EXPECT_EQ(weighted->config().degraded_weight, cfg.degraded_weight);
  EXPECT_EQ(weighted->config().score_cap, cfg.score_cap);
  EXPECT_EQ(weighted->config().spread_floor, cfg.spread_floor);
  ASSERT_EQ(weighted->weights().size(), 2u);
  EXPECT_EQ(weighted->weights()[0].first, "ACC");
  EXPECT_EQ(weighted->weights()[0].second, 0.59375);
  EXPECT_EQ(weighted->weights()[1].first, "AUD");
  EXPECT_EQ(weighted->weights()[1].second, 0.40625);
  // save(load(x)) == x: the codec is an exact inverse.
  ByteWriter w2;
  engine::save_fusion_policy(w2, *loaded);
  const std::vector<std::uint8_t> a(w.data().begin(), w.data().end());
  const std::vector<std::uint8_t> b(w2.data().begin(), w2.data().end());
  EXPECT_EQ(a, b);

  // An untrained weighted policy (uniform weights) round-trips too.
  ByteWriter wu;
  engine::save_fusion_policy(wu, core::WeightedPolicy());
  ByteReader ru(wu.data());
  const auto untrained = engine::load_fusion_policy(ru);
  EXPECT_NO_THROW(ru.finish());
  const auto* uw = dynamic_cast<const core::WeightedPolicy*>(untrained.get());
  ASSERT_NE(uw, nullptr);
  EXPECT_FALSE(uw->trained());
  EXPECT_TRUE(uw->weights().empty());
}

TEST(FusionPolicyCodec, UnknownSubVersionIsTypedBadVersion) {
  // A policy section from a future build must surface as kBadVersion —
  // never a silent misread of bytes this build cannot interpret.
  ByteWriter w;
  w.pod<std::uint32_t>(engine::kFusionPolicyMarker);
  w.pod<std::uint8_t>(engine::kFusionPolicyVersion + 1);
  w.pod<std::uint8_t>(0);  // bytes a future layout might carry
  ByteReader r(w.data());
  try {
    (void)engine::load_fusion_policy(r);
    FAIL() << "unknown policy sub-version accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadVersion);
  }
}

TEST(FusionPolicyCodec, CorruptPolicyBytesAreTypedCorrupt) {
  // Legacy slot with an out-of-range rule (and not the marker).
  {
    ByteWriter w;
    w.pod<std::uint32_t>(7);
    ByteReader r(w.data());
    try {
      (void)engine::load_fusion_policy(r);
      FAIL() << "unknown rule accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
  // Marker + current version + a kind with no encoding behind the marker:
  // an unknown kind, or kVoting (a voting policy is only ever the bare
  // rule u32), each followed by the rule an explicit voting form would
  // have carried.
  for (const std::uint8_t kind :
       {std::uint8_t{9},
        static_cast<std::uint8_t>(core::FusionPolicyKind::kVoting)}) {
    ByteWriter w;
    w.pod<std::uint32_t>(engine::kFusionPolicyMarker);
    w.pod<std::uint8_t>(engine::kFusionPolicyVersion);
    w.pod<std::uint8_t>(kind);
    w.pod<std::uint32_t>(
        static_cast<std::uint32_t>(core::FusionRule::kMajority));
    ByteReader r(w.data());
    try {
      (void)engine::load_fusion_policy(r);
      FAIL() << "policy kind " << int{kind} << " accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
  // Weighted payloads whose trained flag and weight count disagree, and
  // hostile weight values: all typed kCorrupt, never raw invalid_argument.
  const auto weighted_bytes = [](std::uint8_t trained, std::uint64_t count,
                                 double weight) {
    ByteWriter w;
    w.pod<std::uint32_t>(engine::kFusionPolicyMarker);
    w.pod<std::uint8_t>(engine::kFusionPolicyVersion);
    w.pod<std::uint8_t>(
        static_cast<std::uint8_t>(core::FusionPolicyKind::kWeighted));
    w.pod<double>(0.75);   // threshold
    w.pod<double>(0.5);    // degraded_weight
    w.pod<double>(8.0);    // score_cap
    w.pod<double>(0.02);   // spread_floor
    w.pod<std::uint8_t>(trained);
    w.pod<std::uint64_t>(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      w.str("CH" + std::to_string(i));
      w.pod<double>(weight);
    }
    return w.take();
  };
  for (const auto& bytes :
       {weighted_bytes(1, 0, 0.5),    // trained but weightless
        weighted_bytes(0, 2, 0.5),    // untrained with weights
        weighted_bytes(2, 1, 0.5),    // bad trained flag
        weighted_bytes(1, 2, -1.0)})  // negative weight
  {
    ByteReader r(bytes);
    try {
      (void)engine::load_fusion_policy(r);
      FAIL() << "corrupt weighted policy accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming fleet fixtures

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  double src = 0.0;
  std::vector<double> row(b.channels());
  while (src < static_cast<double>(b.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);
  }
  return a;
}

Signal malicious_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 5000);
  const std::size_t lo = a.frames() / 3;
  const std::size_t hi = 2 * a.frames() / 3;
  double lp = 0.0;
  for (std::size_t n = lo; n < hi; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < a.channels(); ++c) a(n, c) = lp;
  }
  return a;
}

NsyncConfig dwm_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 0.3;
  return cfg;
}

class CheckpointFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = dwm_config();
    reference_ = make_reference(1200, 77);
    NsyncIds ids(reference_, cfg_);
    std::vector<Signal> train;
    for (std::uint64_t s = 1; s <= 3; ++s) {
      train.push_back(benign_observation(reference_, s));
    }
    ids.fit(train);
    thresholds_ = ids.thresholds();

    // Session 0: benign on both channels.  Session 1: tampered ACC and an
    // AUD sensor that flatlines mid-print (fault injection), so recovery
    // is exercised across detection, fusion *and* health state.
    streams_ = {{benign_observation(reference_, 50),
                 benign_observation(reference_, 51)},
                {malicious_observation(reference_, 60),
                 nsync::sensors::flatline_from(
                     SignalView(benign_observation(reference_, 61)), 400,
                     0.0)}};
  }

  SessionSpec make_session(const std::string& name) const {
    SessionSpec spec;
    spec.name = name;
    for (const char* ch : {"ACC", "AUD"}) {
      ChannelSpec c;
      c.name = ch;
      c.reference = reference_;
      c.config = cfg_;
      c.thresholds = thresholds_;
      spec.channels.push_back(std::move(c));
    }
    return spec;
  }

  MonitorEngine make_engine() const {
    MonitorEngine eng;
    eng.add_session(make_session("benign-print"));
    eng.add_session(make_session("tampered-print"));
    return eng;
  }

  /// Feeds round k of the chunked schedule without polling: frames
  /// [k*chunk, (k+1)*chunk) of every channel of every session.
  void feed_round(MonitorEngine& eng, std::size_t chunk, std::size_t k) const {
    static const char* kNames[] = {"ACC", "AUD"};
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      for (std::size_t c = 0; c < 2; ++c) {
        const Signal& sig = streams_[s][c];
        const std::size_t lo = k * chunk;
        if (lo >= sig.frames()) continue;
        const std::size_t hi = std::min(lo + chunk, sig.frames());
        eng.feed(s, kNames[c], SignalView(sig).slice(lo, hi));
      }
    }
  }

  /// Feeds rounds [from, to) of the chunked schedule, polling after each.
  void feed_rounds(MonitorEngine& eng, std::size_t chunk, std::size_t from,
                   std::size_t to) const {
    for (std::size_t k = from; k < to; ++k) {
      feed_round(eng, chunk, k);
      eng.poll_inline();
    }
  }

  [[nodiscard]] std::size_t rounds_for(std::size_t chunk) const {
    std::size_t longest = 0;
    for (const auto& session : streams_) {
      for (const auto& sig : session) longest = std::max(longest, sig.frames());
    }
    return (longest + chunk - 1) / chunk;
  }

  NsyncConfig cfg_;
  Signal reference_;
  Thresholds thresholds_;
  std::vector<std::vector<Signal>> streams_;
};

void expect_snapshots_equal(const std::vector<SessionSnapshot>& a,
                            const std::vector<SessionSnapshot>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE(label + ": session " + a[s].name);
    EXPECT_EQ(a[s].name, b[s].name);
    EXPECT_EQ(a[s].intrusion, b[s].intrusion);
    EXPECT_EQ(a[s].first_alarm_window, b[s].first_alarm_window);
    EXPECT_EQ(a[s].alarming_channels, b[s].alarming_channels);
    EXPECT_EQ(a[s].online_channels, b[s].online_channels);
    EXPECT_EQ(a[s].frames_fed, b[s].frames_fed);
    EXPECT_EQ(a[s].windows, b[s].windows);
    ASSERT_EQ(a[s].channels.size(), b[s].channels.size());
    for (std::size_t c = 0; c < a[s].channels.size(); ++c) {
      const auto& ca = a[s].channels[c];
      const auto& cb = b[s].channels[c];
      EXPECT_EQ(ca.name, cb.name);
      EXPECT_EQ(ca.detection.intrusion, cb.detection.intrusion);
      EXPECT_EQ(ca.detection.by_c_disp, cb.detection.by_c_disp);
      EXPECT_EQ(ca.detection.by_h_dist, cb.detection.by_h_dist);
      EXPECT_EQ(ca.detection.by_v_dist, cb.detection.by_v_dist);
      EXPECT_EQ(ca.detection.first_alarm_window,
                cb.detection.first_alarm_window);
      EXPECT_EQ(ca.health, cb.health);
      EXPECT_EQ(ca.windows, cb.windows);
      EXPECT_EQ(ca.frames_fed, cb.frames_fed);
    }
  }
}

// ---------------------------------------------------------------------------
// RealtimeMonitor round-trip

TEST_F(CheckpointFleetTest, RealtimeMonitorContinuesBitwise) {
  const Signal& obs = streams_[1][0];  // tampered stream
  RealtimeMonitor a(reference_, cfg_, thresholds_);
  RealtimeMonitor b(reference_, cfg_, thresholds_);

  const std::size_t half = obs.frames() / 2;
  a.push(SignalView(obs).slice(0, half));
  b.push(SignalView(obs).slice(0, half));

  ByteWriter w;
  a.save_state(w);
  RealtimeMonitor c(reference_, cfg_, thresholds_);
  {
    ByteReader r(w.data());
    c.restore_state(r);
    r.finish();
  }
  // Finish the print on the uninterrupted monitor and the restored one, in
  // different chunkings; every feature must match bitwise.
  b.push(SignalView(obs).slice(half, obs.frames()));
  for (std::size_t off = half; off < obs.frames(); off += 97) {
    c.push(SignalView(obs).slice(off, std::min(off + 97, obs.frames())));
  }
  ASSERT_EQ(c.windows(), b.windows());
  EXPECT_EQ(c.features().c_disp, b.features().c_disp);
  EXPECT_EQ(c.features().h_dist_f, b.features().h_dist_f);
  EXPECT_EQ(c.features().v_dist_f, b.features().v_dist_f);
  EXPECT_EQ(c.valid(), b.valid());
  EXPECT_EQ(c.detection().intrusion, b.detection().intrusion);
  EXPECT_EQ(c.detection().first_alarm_window,
            b.detection().first_alarm_window);
  EXPECT_EQ(c.health(), b.health());

  // Restoring against a different reference -> kMismatch, monitor intact.
  RealtimeMonitor d(make_reference(1200, 123), cfg_, thresholds_);
  ByteReader r2(w.data());
  try {
    d.restore_state(r2);
    FAIL() << "reference mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
  EXPECT_EQ(d.windows(), 0u);  // unchanged by the failed restore
}

// ---------------------------------------------------------------------------
// The headline property: kill + restore + replay == uninterrupted

TEST_F(CheckpointFleetTest, KilledAndRestoredFleetIsBitwiseIdentical) {
  const std::string path = temp_path("fleet-kill.nckp");
  const std::size_t chunks[] = {1, 113, 1200};
  std::vector<SessionSnapshot> prev_chunk_snaps;
  for (const std::size_t chunk : chunks) {
    const std::size_t rounds = rounds_for(chunk);
    // Uninterrupted baseline for this chunk schedule.
    MonitorEngine baseline = make_engine();
    feed_rounds(baseline, chunk, 0, rounds);
    const std::vector<std::uint8_t> baseline_bytes = baseline.serialize();
    const std::vector<SessionSnapshot> baseline_snaps = snapshots(baseline);

    // Chunk-size invariance: once the whole stream is in, every chunk
    // schedule reaches the same detections, health states and verdicts
    // (single frames, odd mid-size chunks, the whole print at once).
    if (!prev_chunk_snaps.empty()) {
      expect_snapshots_equal(baseline_snaps, prev_chunk_snaps,
                             "chunk " + std::to_string(chunk) +
                                 " vs smaller chunk");
    }
    prev_chunk_snaps = baseline_snaps;

    for (const double frac : {0.25, 0.5, 0.75}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", kill at " +
                   std::to_string(frac));
      const std::size_t kill = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(rounds) * frac));
      {
        MonitorEngine victim = make_engine();
        feed_rounds(victim, chunk, 0, kill);
        victim.checkpoint(path);
        // The victim dies here (scope exit); everything it learned after
        // the checkpoint is lost and must be replayed.
      }
      MonitorEngine revived = MonitorEngine::restore(path);
      feed_rounds(revived, chunk, kill, rounds);
      // Strongest possible claim: the full serialized state — every
      // feature array, ring buffer index, health counter and latched
      // verdict — is byte-for-byte the uninterrupted run's.
      EXPECT_TRUE(revived.serialize() == baseline_bytes)
          << "restored fleet state diverged from the uninterrupted run";
      expect_snapshots_equal(snapshots(revived), baseline_snaps, "revived");
    }
  }

  // And the detection outcome itself is the expected one: session 0
  // benign, session 1 alarmed with its AUD channel offline.
  MonitorEngine eng = make_engine();
  feed_rounds(eng, 113, 0, rounds_for(113));
  const auto snaps = snapshots(eng);
  EXPECT_FALSE(snaps[0].intrusion);
  EXPECT_TRUE(snaps[1].intrusion);
  EXPECT_GE(snaps[1].first_alarm_window, 0);
  EXPECT_EQ(snaps[1].channels[1].health, ChannelHealth::kOffline);
  std::remove(path.c_str());
}

TEST_F(CheckpointFleetTest, CheckpointBetweenAFeedAndItsPollReplaysBitwise) {
  // A checkpoint taken after a feed completed windows, before the poll
  // that scores them, holds windows the fused verdict has not seen.  The
  // restored engine scores them at its first poll, where the
  // uninterrupted run does: after every poll, the latching one included,
  // the verdicts, first_alarm_window and fused scores are the same.
  const std::string path = temp_path("fleet-feed-poll.nckp");
  const std::size_t chunk = 113;
  const std::size_t rounds = rounds_for(chunk);
  MonitorEngine baseline = make_engine();
  std::vector<std::vector<SessionSnapshot>> after_poll;
  std::size_t latch = rounds;
  for (std::size_t k = 0; k < rounds; ++k) {
    feed_rounds(baseline, chunk, k, k + 1);
    after_poll.push_back(snapshots(baseline));
    if (latch == rounds && after_poll.back()[1].intrusion) latch = k;
  }
  ASSERT_GT(latch, 0u) << "the attacked session must latch mid-print";
  ASSERT_LT(latch, rounds);

  for (std::size_t kill = 0; kill < rounds; ++kill) {
    SCOPED_TRACE("checkpoint before the poll of round " +
                 std::to_string(kill) + " (latch " + std::to_string(latch) +
                 ")");
    {
      MonitorEngine victim = make_engine();
      feed_rounds(victim, chunk, 0, kill);
      feed_round(victim, chunk, kill);
      victim.checkpoint(path);
    }
    MonitorEngine revived = MonitorEngine::restore(path);
    for (std::size_t k = kill; k < rounds; ++k) {
      if (k > kill) feed_round(revived, chunk, k);
      revived.poll_inline();
      const std::vector<SessionSnapshot> got = snapshots(revived);
      expect_snapshots_equal(got, after_poll[k],
                             "after the poll of round " + std::to_string(k));
      for (std::size_t s = 0; s < got.size(); ++s) {
        EXPECT_EQ(got[s].fused_score, after_poll[k][s].fused_score);
      }
    }
    EXPECT_TRUE(revived.serialize() == baseline.serialize());
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointFleetTest, RecoveryIsWorkerCountInvariant) {
  const std::string path = temp_path("fleet-workers.nckp");
  std::vector<std::uint8_t> first_bytes;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    runtime::set_worker_count(workers);
    const std::size_t rounds = rounds_for(113);
    const std::size_t kill = rounds / 2;
    {
      MonitorEngine victim = make_engine();
      feed_rounds(victim, 113, 0, kill);
      victim.checkpoint(path);
    }
    MonitorEngine revived = MonitorEngine::restore(path);
    feed_rounds(revived, 113, kill, rounds);
    const std::vector<std::uint8_t> bytes = revived.serialize();
    if (first_bytes.empty()) {
      first_bytes = bytes;
    } else {
      EXPECT_TRUE(bytes == first_bytes)
          << "recovered state differs across worker counts";
    }
  }
  runtime::set_worker_count(0);  // restore automatic sizing
  std::remove(path.c_str());
}

TEST_F(CheckpointFleetTest, CheckpointWhileDegradedRestoresHealthCounters) {
  // Kill the fleet while session 1's AUD channel is mid-flatline (offline,
  // with live hysteresis counters).  The restored channel must keep the
  // same health state and the same streak position — not re-enter healthy.
  const std::string path = temp_path("fleet-degraded.nckp");
  const std::size_t chunk = 113;
  const std::size_t rounds = rounds_for(chunk);
  MonitorEngine baseline = make_engine();
  feed_rounds(baseline, chunk, 0, rounds);

  // Find a kill point where the faulted channel is already non-healthy.
  std::size_t kill = 0;
  MonitorEngine probe = make_engine();
  for (std::size_t k = 0; k < rounds; ++k) {
    feed_rounds(probe, chunk, k, k + 1);
    if (probe.snapshot(1).channels[1].health != ChannelHealth::kHealthy) {
      kill = k + 1;
      break;
    }
  }
  ASSERT_GT(kill, 0u) << "fault never degraded the channel";
  ASSERT_LT(kill, rounds) << "no frames left to replay after the kill";
  probe.checkpoint(path);

  MonitorEngine revived = MonitorEngine::restore(path);
  EXPECT_EQ(revived.snapshot(1).channels[1].health,
            probe.snapshot(1).channels[1].health);
  feed_rounds(revived, chunk, kill, rounds);
  EXPECT_TRUE(revived.serialize() == baseline.serialize())
      << "state diverged after restoring a degraded-channel checkpoint";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fusion policy recovery

TEST_F(CheckpointFleetTest, VotingPolicyParityBitwiseAcrossRulesAndKillPoints) {
  // An explicit VotingPolicy in the spec must be indistinguishable — in
  // serialized bytes, through any kill/restore point — from the legacy
  // rule field it replaced.
  const std::string path = temp_path("fleet-voting-parity.nckp");
  const std::size_t chunk = 113;
  const std::size_t rounds = rounds_for(chunk);
  for (core::FusionRule rule :
       {core::FusionRule::kAny, core::FusionRule::kMajority,
        core::FusionRule::kAll}) {
    SCOPED_TRACE(core::fusion_rule_name(rule));
    const auto make_rule_engine = [&](bool explicit_policy) {
      MonitorEngine eng;
      for (const char* name : {"benign-print", "tampered-print"}) {
        SessionSpec spec = make_session(name);
        if (explicit_policy) {
          spec.policy = std::make_shared<core::VotingPolicy>(rule);
        } else {
          spec.rule = rule;  // the historical field, policy left null
        }
        eng.add_session(std::move(spec));
      }
      return eng;
    };

    MonitorEngine legacy = make_rule_engine(false);
    feed_rounds(legacy, chunk, 0, rounds);
    const std::vector<std::uint8_t> legacy_bytes = legacy.serialize();

    MonitorEngine modern = make_rule_engine(true);
    feed_rounds(modern, chunk, 0, rounds);
    EXPECT_TRUE(modern.serialize() == legacy_bytes)
        << "explicit VotingPolicy broke byte parity with the rule field";

    for (const double frac : {0.25, 0.5, 0.75}) {
      SCOPED_TRACE("kill at " + std::to_string(frac));
      const std::size_t kill = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(rounds) * frac));
      {
        MonitorEngine victim = make_rule_engine(true);
        feed_rounds(victim, chunk, 0, kill);
        victim.checkpoint(path);
      }
      MonitorEngine revived = MonitorEngine::restore(path);
      EXPECT_EQ(revived.snapshot(0).policy, core::fusion_rule_name(rule));
      feed_rounds(revived, chunk, kill, rounds);
      EXPECT_TRUE(revived.serialize() == legacy_bytes)
          << "restored voting-policy fleet diverged from the legacy run";
    }
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointFleetTest, WeightedSessionKillAndRestoreReplaysBitwise) {
  // Weighted sessions carry learned reliability weights through the
  // checkpoint: after a kill at any point the restored fleet must replay
  // to the uninterrupted run's exact bytes, weights included.
  const std::string path = temp_path("fleet-weighted-kill.nckp");
  const std::size_t chunk = 113;
  const std::size_t rounds = rounds_for(chunk);
  auto policy = std::make_shared<core::WeightedPolicy>();
  policy->fit(std::vector<std::string>{"ACC", "AUD"},
              {{0.21, 0.47}, {0.33, 0.12}, {0.27, 0.30}, {0.19, 0.41}});
  const auto make_weighted_engine = [&]() {
    MonitorEngine eng;
    for (const char* name : {"benign-print", "tampered-print"}) {
      SessionSpec spec = make_session(name);
      spec.policy = policy;
      eng.add_session(std::move(spec));
    }
    return eng;
  };

  MonitorEngine baseline = make_weighted_engine();
  feed_rounds(baseline, chunk, 0, rounds);
  const std::vector<std::uint8_t> baseline_bytes = baseline.serialize();
  const std::vector<SessionSnapshot> baseline_snaps = snapshots(baseline);
  EXPECT_EQ(baseline_snaps[0].policy, "weighted");
  EXPECT_FALSE(baseline_snaps[0].intrusion);
  EXPECT_TRUE(baseline_snaps[1].intrusion);

  for (const double frac : {0.25, 0.5, 0.75}) {
    SCOPED_TRACE("kill at " + std::to_string(frac));
    const std::size_t kill = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(rounds) * frac));
    {
      MonitorEngine victim = make_weighted_engine();
      feed_rounds(victim, chunk, 0, kill);
      victim.checkpoint(path);
    }
    MonitorEngine revived = MonitorEngine::restore(path);
    // The learned weights themselves came back bitwise: the restored
    // session's channel weights match the baseline's exactly.
    const SessionSnapshot snap = revived.snapshot(0);
    EXPECT_EQ(snap.policy, "weighted");
    ASSERT_EQ(snap.channels.size(), baseline_snaps[0].channels.size());
    feed_rounds(revived, chunk, kill, rounds);
    EXPECT_TRUE(revived.serialize() == baseline_bytes)
        << "restored weighted fleet diverged from the uninterrupted run";
    const std::vector<SessionSnapshot> revived_snaps = snapshots(revived);
    expect_snapshots_equal(revived_snaps, baseline_snaps, "weighted revived");
    for (std::size_t s = 0; s < revived_snaps.size(); ++s) {
      EXPECT_EQ(revived_snaps[s].fused_score, baseline_snaps[s].fused_score);
      for (std::size_t c = 0; c < revived_snaps[s].channels.size(); ++c) {
        EXPECT_EQ(revived_snaps[s].channels[c].weight,
                  baseline_snaps[s].channels[c].weight);
        EXPECT_EQ(revived_snaps[s].channels[c].score,
                  baseline_snaps[s].channels[c].score);
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Periodic policy, corruption, misuse

TEST_F(CheckpointFleetTest, PeriodicPolicyWritesAndRotatesAtomically) {
  // The fleet owns the periodic policy: a shard writes its checkpoint on
  // every third drain round, and the files on disk always form a
  // complete, loadable checkpoint set.
  static const char* kNames[] = {"ACC", "AUD"};
  constexpr std::size_t kChunk = 113;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedFleetOptions opts;
    opts.shards = shards;
    opts.checkpoint_dir = temp_path("fleet-policy-" + std::to_string(shards));
    std::filesystem::create_directories(opts.checkpoint_dir);
    opts.checkpoint_every_polls = 3;
    ShardedFleet fleet(opts);
    fleet.add_session(make_session("benign-print"));
    fleet.add_session(make_session("tampered-print"));
    // Round k feeds chunk k of every channel, then drains it.
    const auto feed_fleet_rounds = [&](std::size_t from, std::size_t to) {
      for (std::size_t k = from; k < to; ++k) {
        for (std::size_t s = 0; s < streams_.size(); ++s) {
          for (std::size_t c = 0; c < 2; ++c) {
            const SignalView sig(streams_[s][c]);
            ASSERT_LT((k + 1) * kChunk, sig.frames());
            ASSERT_EQ(fleet.feed(s, kNames[c],
                                 sig.slice(k * kChunk, (k + 1) * kChunk))
                          .status,
                      engine::FeedStatus::kOk);
          }
        }
        fleet.flush();
      }
    };
    // Every shard's periodic writes so far, after checking each against
    // its drain rounds (a worker may split one round's batches in two).
    const auto periodic_writes = [&](std::size_t rounds) {
      std::uint64_t written = 0;
      for (const auto& st : fleet.stats().per_shard) {
        EXPECT_GE(st.polls, rounds);
        EXPECT_EQ(st.checkpoints_written, st.polls / 3);
        // Plus one synchronous write per admission.
        EXPECT_EQ(st.checkpoint_writes, st.checkpoints_written + st.sessions);
        written += st.checkpoints_written;
      }
      return written;
    };

    feed_fleet_rounds(0, 2);
    (void)periodic_writes(2);
    feed_fleet_rounds(2, 3);
    EXPECT_GE(periodic_writes(3), shards);  // each shard polled >= 3 times
    feed_fleet_rounds(3, 9);
    EXPECT_GE(periodic_writes(9), 3 * shards);

    const std::unique_ptr<ShardedFleet> restored =
        ShardedFleet::restore(opts.checkpoint_dir, opts);
    EXPECT_EQ(restored->sessions(), fleet.sessions());
    std::filesystem::remove_all(opts.checkpoint_dir);
  }
}

TEST_F(CheckpointFleetTest, CorruptedCheckpointNeverPartiallyRestores) {
  MonitorEngine eng = make_engine();
  feed_rounds(eng, 113, 0, 5);
  const std::vector<std::uint8_t> payload = eng.serialize();

  // Flip every 97th byte in turn: restore_from_bytes must either reject
  // with CheckpointError or produce a fully valid engine — never crash,
  // never throw anything else.
  for (std::size_t i = 0; i < payload.size(); i += 97) {
    auto mangled = payload;
    mangled[i] ^= 0x40;
    try {
      MonitorEngine restored = MonitorEngine::restore_from_bytes(mangled);
      (void)snapshots(restored);  // fully usable if accepted
    } catch (const CheckpointError&) {
      // The expected outcome for most flips.
    }
  }

  // Truncations of the payload likewise.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{4}, payload.size() / 2,
        payload.size() - 1}) {
    const std::span<const std::uint8_t> cut(payload.data(), n);
    EXPECT_THROW((void)MonitorEngine::restore_from_bytes(cut),
                 CheckpointError);
  }

  // The intact payload restores, and the restored engine's own serialize()
  // reproduces it byte for byte (serialize/restore are exact inverses).
  MonitorEngine restored = MonitorEngine::restore_from_bytes(payload);
  EXPECT_TRUE(restored.serialize() == payload)
      << "serialize(restore(payload)) != payload";
}

TEST_F(CheckpointFleetTest, RestoreRejectsMissingAndForeignFiles) {
  try {
    (void)MonitorEngine::restore(temp_path("missing.nckp"));
    FAIL() << "missing file accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
  const std::string path = temp_path("foreign.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  try {
    (void)MonitorEngine::restore(path);
    FAIL() << "foreign file accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadMagic);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Spec-once checkpoints: spec files, references, failure taxonomy, cleanup

ino_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The kind restore(path) fails with (the test fails if it succeeds).
CheckpointErrorKind restore_error(const std::string& path) {
  try {
    (void)MonitorEngine::restore(path);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "restore of " << path << " succeeded";
  return CheckpointErrorKind::kIo;
}

/// A fresh directory under the test temp dir, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(temp_path("spec-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

TEST_F(CheckpointFleetTest, SpecFilesAreWrittenOnceAndRestoreBitwise) {
  const ScratchDir dir("once");
  const std::string path = dir.file("fleet.nckp");
  MonitorEngine eng = make_engine();
  feed_rounds(eng, 113, 0, 3);
  eng.checkpoint(path);
  const std::string s0 = MonitorEngine::spec_path(path, 0);
  const std::string s1 = MonitorEngine::spec_path(path, 1);
  ASSERT_EQ(s0, path + ".s0.spec");
  const ino_t spec0 = inode_of(s0);
  const ino_t spec1 = inode_of(s1);
  const ino_t state = inode_of(path);

  // Later checkpoints rewrite the state file (a new inode per atomic
  // replace) but never the specs.
  feed_rounds(eng, 113, 3, 6);
  eng.checkpoint(path);
  EXPECT_NE(inode_of(path), state);
  EXPECT_EQ(inode_of(s0), spec0);
  EXPECT_EQ(inode_of(s1), spec1);

  // State file + spec files restore to exactly the in-memory form, and
  // the restored engine's next checkpoint does not rewrite them either.
  MonitorEngine revived = MonitorEngine::restore(path);
  EXPECT_TRUE(revived.serialize() == eng.serialize());
  revived.checkpoint(path);
  EXPECT_EQ(inode_of(s0), spec0);

  // A checkpoint() payload names its specs; restore_from_bytes has no
  // directory to read them from.
  const std::vector<std::uint8_t> payload =
      nsync::signal::read_checkpoint_file(path);
  try {
    (void)MonitorEngine::restore_from_bytes(payload);
    FAIL() << "spec-file payload restored from bytes";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }
}

TEST_F(CheckpointFleetTest, StateFileDoesNotGrowWithReferenceLength) {
  // Two fleets that differ only in reference length (the longer reference
  // extends the shorter one) and see the same frames: their state files
  // are byte-for-byte the same size, their self-contained forms are not.
  const ScratchDir dir("size");
  const Signal longer = make_reference(4 * reference_.frames(), 77);
  std::vector<std::uintmax_t> state_bytes;
  std::vector<std::size_t> payload_bytes;
  for (const Signal* ref : {static_cast<const Signal*>(&reference_), &longer}) {
    MonitorEngine eng;
    for (const char* name : {"benign-print", "tampered-print"}) {
      SessionSpec spec = make_session(name);
      for (auto& c : spec.channels) c.reference = *ref;
      eng.add_session(std::move(spec));
    }
    feed_rounds(eng, 113, 0, 4);
    const std::string path =
        dir.file("fleet-" + std::to_string(ref->frames()) + ".nckp");
    eng.checkpoint(path);
    state_bytes.push_back(std::filesystem::file_size(path));
    payload_bytes.push_back(eng.serialize().size());
  }
  EXPECT_EQ(state_bytes[0], state_bytes[1]);
  EXPECT_LT(payload_bytes[0], payload_bytes[1]);
}

TEST_F(CheckpointFleetTest, SpecFileFailuresAreTyped) {
  const ScratchDir dir("taxonomy");
  const std::string path = dir.file("fleet.nckp");
  MonitorEngine eng = make_engine();
  feed_rounds(eng, 113, 0, 3);
  eng.checkpoint(path);
  const std::string s0 = MonitorEngine::spec_path(path, 0);
  const std::string s1 = MonitorEngine::spec_path(path, 1);
  const std::vector<std::uint8_t> original = file_bytes(s1);

  // Missing spec file: kIo.
  std::filesystem::remove(s1);
  EXPECT_EQ(restore_error(path), CheckpointErrorKind::kIo);

  // Edited spec file (one payload byte — the container header is 16
  // bytes): kMismatch, not corruption.
  std::vector<std::uint8_t> edited = original;
  edited[16 + edited.size() / 2] ^= 0x01;
  put_file(s1, edited);
  EXPECT_EQ(restore_error(path), CheckpointErrorKind::kMismatch);

  // Another session's intact spec file in its place: kMismatch.
  put_file(s1, file_bytes(s0));
  EXPECT_EQ(restore_error(path), CheckpointErrorKind::kMismatch);

  // Failed restores delete nothing; with the right file back it restores.
  EXPECT_TRUE(std::filesystem::exists(s0));
  put_file(s1, original);
  MonitorEngine revived = MonitorEngine::restore(path);
  EXPECT_TRUE(revived.serialize() == eng.serialize());
}

TEST_F(CheckpointFleetTest, PreSpecFileFleetLayoutIsBadVersion) {
  // Fleet payloads of older layouts: "\x01FLT" (specs inline, from before
  // spec files) and "\x02FLT" (a staging ring per channel).  An empty
  // fleet without a registry, framed as it was written, is refused with
  // the typed version error.
  for (const std::uint32_t id : {0x544C4601u, 0x544C4602u}) {
    SCOPED_TRACE("layout " + std::to_string(id & 0xFF));
    ByteWriter w;
    const std::size_t tok = w.begin_section(id);
    w.pod<std::uint64_t>(0);  // sessions
    w.pod<std::uint8_t>(0);   // no registry
    w.end_section(tok);
    const ScratchDir dir("layout" + std::to_string(id & 0xFF));
    const std::string path = dir.file("fleet.nckp");
    nsync::signal::write_checkpoint_file(path, w.data());
    EXPECT_EQ(restore_error(path), CheckpointErrorKind::kBadVersion);
    try {
      (void)MonitorEngine::restore_from_bytes(w.data());
      ADD_FAILURE() << "old-layout payload restored";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadVersion);
    }
  }
}

TEST_F(CheckpointFleetTest, RestoreRemovesWhatCrashesLeftBehind) {
  const ScratchDir dir("cleanup");
  const std::string path = dir.file("fleet.nckp");
  MonitorEngine eng = make_engine();
  feed_rounds(eng, 113, 0, 3);
  eng.checkpoint(path);
  const std::string s0 = MonitorEngine::spec_path(path, 0);
  const std::string s1 = MonitorEngine::spec_path(path, 1);
  const std::vector<std::uint8_t> spec1 = file_bytes(s1);

  // Eviction keeps the spec file until the tombstone is durable.
  eng.evict_session(1);
  EXPECT_TRUE(std::filesystem::exists(s1));
  eng.checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(s1));

  // Crash window 1: tombstone durable, spec file not yet deleted.
  put_file(s1, spec1);
  // Crash window 2: a new session's spec written, its state not yet.
  const std::string s2 = MonitorEngine::spec_path(path, 2);
  put_file(s2, spec1);
  // SIGKILLs mid-write by another process, of the state and of a spec.
  const std::string stale_state = path + ".999999999.0.tmp";
  const std::string stale_spec = s0 + ".999999999.1.tmp";
  // A write of this process may be in flight; other targets are not ours.
  const std::string own = path + "." + std::to_string(::getpid()) + ".7.tmp";
  const std::string foreign = dir.file("other.nckp.999999999.0.tmp");
  for (const std::string* f : {&stale_state, &stale_spec, &own, &foreign}) {
    put_file(*f, spec1);
  }

  MonitorEngine revived = MonitorEngine::restore(path);
  EXPECT_TRUE(revived.snapshot(1).evicted);
  EXPECT_TRUE(std::filesystem::exists(s0));
  EXPECT_FALSE(std::filesystem::exists(s1));
  EXPECT_FALSE(std::filesystem::exists(s2));
  EXPECT_FALSE(std::filesystem::exists(stale_state));
  EXPECT_FALSE(std::filesystem::exists(stale_spec));
  EXPECT_TRUE(std::filesystem::exists(own));
  EXPECT_TRUE(std::filesystem::exists(foreign));
}

// ---------------------------------------------------------------------------
// Write only what restore reads

TEST(Container, FileReadersKeepTheFramingErrorOrder) {
  const ScratchDir dir("readers");
  const std::string path = dir.file("x.nckp");
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5, 4, 3};
  const std::vector<std::uint8_t> file =
      nsync::signal::frame_checkpoint(payload);
  const std::uint32_t crc = nsync::signal::crc32(payload.data(), 7);
  // The error kind a read throws; nullopt when it accepts.
  using Outcome = std::optional<CheckpointErrorKind>;
  const Outcome mismatch = CheckpointErrorKind::kMismatch;
  const auto outcome = [](auto&& read) -> Outcome {
    try {
      (void)read();
    } catch (const CheckpointError& e) {
      return e.kind();
    }
    return std::nullopt;
  };
  const auto plain_error = [&](std::span<const std::uint8_t> bytes) {
    put_file(path, bytes);
    return outcome([&] { return nsync::signal::read_checkpoint_file(path); });
  };
  const auto referred_error = [&](std::span<const std::uint8_t> bytes) {
    put_file(path, bytes);
    return outcome([&] {
      return nsync::signal::read_checkpoint_file(path, payload.size(), crc);
    });
  };
  const auto unframe_error = [&](std::span<const std::uint8_t> bytes) {
    return outcome([&] { return nsync::signal::unframe_checkpoint(bytes); });
  };

  put_file(path, file);
  EXPECT_EQ(nsync::signal::read_checkpoint_file(path), payload);
  EXPECT_EQ(nsync::signal::read_checkpoint_file(path, payload.size(), crc),
            payload);

  // Every prefix: the plain reader reports what the framing check does;
  // the referring reader sees a file whose size is not the referenced one.
  for (std::size_t n = 0; n < file.size(); ++n) {
    const std::span<const std::uint8_t> prefix(file.data(), n);
    EXPECT_EQ(plain_error(prefix), unframe_error(prefix)) << n;
    EXPECT_EQ(referred_error(prefix), mismatch) << n;
  }
  // One flipped bit in every byte.  Header and footer edits keep the
  // payload the referenced one, so both readers report the framing error;
  // a payload edit is corruption to the plain reader and a mismatch to
  // the referring one (checked first).
  for (std::size_t at = 0; at < file.size(); ++at) {
    std::vector<std::uint8_t> edited = file;
    edited[at] ^= 0x01;
    const bool in_payload = at >= 16 && at < 16 + payload.size();
    EXPECT_EQ(plain_error(edited), unframe_error(edited)) << at;
    EXPECT_EQ(referred_error(edited),
              in_payload ? mismatch : unframe_error(edited))
        << at;
  }
  // A referrer naming another size or CRC: kMismatch on an intact file.
  put_file(path, file);
  EXPECT_EQ(outcome([&] {
              return nsync::signal::read_checkpoint_file(
                  path, payload.size() + 1, crc);
            }),
            mismatch);
  EXPECT_EQ(outcome([&] {
              return nsync::signal::read_checkpoint_file(path, payload.size(),
                                                         crc ^ 1u);
            }),
            mismatch);
  // A missing file is kIo for both.
  const std::string missing = dir.file("missing.nckp");
  const Outcome io = CheckpointErrorKind::kIo;
  EXPECT_EQ(
      outcome([&] { return nsync::signal::read_checkpoint_file(missing); }),
      io);
  EXPECT_EQ(outcome([&] {
              return nsync::signal::read_checkpoint_file(
                  missing, payload.size(), crc);
            }),
            io);
}

TEST(ByteCodec, ReferencingWriterEncodesTheSameBytes) {
  const std::vector<double> big = {1.5, -2.25, 3.0, 0.125, -0.5};
  const std::vector<double> small = {42.0};
  const auto encode = [&](ByteWriter& w) {
    w.pod<std::uint32_t>(7);
    const std::size_t outer = w.begin_section(0x11223344);
    w.f64_array(big);
    w.str("between");
    const std::size_t inner = w.begin_section(0x55667788);
    w.f64_array(small);
    w.f64_array({});
    w.end_section(inner);
    w.f64_array(big);  // two arrays back to back
    w.f64_array(small);
    w.end_section(outer);
    w.pod<std::uint8_t>(1);
  };
  ByteWriter copied;
  encode(copied);
  ByteWriter referenced(ByteWriter::Arrays::kReference);
  encode(referenced);

  const auto pieces = referenced.pieces();
  std::vector<std::uint8_t> joined;
  for (const auto piece : pieces) {
    EXPECT_FALSE(piece.empty());
    joined.insert(joined.end(), piece.begin(), piece.end());
  }
  const std::span<const std::uint8_t> want = copied.data();
  EXPECT_TRUE(std::equal(joined.begin(), joined.end(), want.begin(),
                         want.end()));
  EXPECT_EQ(referenced.size(), want.size());
  // Arrays are referenced, not copied: the buffered runs are short.
  EXPECT_EQ(pieces[1].data(),
            reinterpret_cast<const std::uint8_t*>(big.data()));
  const std::uint32_t crc = nsync::signal::crc32(pieces);
  EXPECT_EQ(crc, nsync::signal::crc32(want.data(), want.size()));
  // The buffer alone is not the encoding.
  EXPECT_THROW((void)referenced.data(), std::logic_error);

  // The pieces write equals the buffered write byte for byte.
  const ScratchDir dir("pieces");
  nsync::signal::write_checkpoint_file(dir.file("buffered.nckp"), want);
  nsync::signal::write_checkpoint_file(dir.file("pieces.nckp"), pieces, crc);
  EXPECT_EQ(file_bytes(dir.file("pieces.nckp")),
            file_bytes(dir.file("buffered.nckp")));
  EXPECT_TRUE(std::ranges::equal(
      nsync::signal::read_checkpoint_file(dir.file("pieces.nckp")), want));
}

/// The SpecRef (payload bytes, CRC) a checkpoint() state file names for
/// each session, in session order (tombstones have none: nullopt).
std::vector<std::optional<std::pair<std::uint64_t, std::uint32_t>>>
state_spec_refs(const std::string& state_path) {
  constexpr std::uint32_t kSecFleet = 0x544C4603;    // "\x03FLT"
  constexpr std::uint32_t kSecSession = 0x53455301;  // "\x01SES"
  const std::vector<std::uint8_t> payload =
      nsync::signal::read_checkpoint_file(state_path);
  ByteReader top(payload);
  ByteReader fleet = top.section(kSecFleet);
  const auto sessions = fleet.pod<std::uint64_t>();
  std::vector<std::optional<std::pair<std::uint64_t, std::uint32_t>>> out;
  for (std::uint64_t i = 0; i < sessions; ++i) {
    ByteReader s = fleet.section(kSecSession);
    (void)s.str();
    if (s.pod<std::uint8_t>() != 0) {
      out.emplace_back();
      continue;
    }
    const auto bytes = s.pod<std::uint64_t>();
    const auto crc = s.pod<std::uint32_t>();
    out.emplace_back(std::pair{bytes, crc});
  }
  return out;
}

TEST_F(CheckpointFleetTest, SpecFilesWrittenFromTheReferencesMatchTheBuffered) {
  // A raw three-channel session (widths 1, 3 and 2 at different rates)
  // and a weighted-policy session: each spec file equals the buffered
  // write of its save_session_spec encoding, and the state file names it
  // by that payload's size and CRC.
  SessionSpec raw;
  raw.name = "raw-3ch";
  raw.rule = core::FusionRule::kMajority;
  for (const auto& [name, width, rate] :
       {std::tuple<const char*, std::size_t, double>{"MAG", 1, 50.0},
        {"ACC", 3, 100.0},
        {"AUD", 2, 200.0}}) {
    Rng rng(width * 31 + 7);
    Signal ref(700, width, rate);
    for (std::size_t n = 0; n < ref.frames(); ++n) {
      for (std::size_t c = 0; c < width; ++c) ref(n, c) = rng.normal();
    }
    ChannelSpec c;
    c.name = name;
    c.reference = std::move(ref);
    c.config = cfg_;
    c.thresholds = thresholds_;
    raw.channels.push_back(std::move(c));
  }
  SessionSpec weighted = make_session("weighted");
  core::WeightedPolicyConfig wcfg;
  wcfg.threshold = 0.8125;
  weighted.policy = std::make_shared<core::WeightedPolicy>(
      wcfg, std::vector<std::pair<std::string, double>>{{"ACC", 0.75},
                                                        {"AUD", 0.25}});

  const ScratchDir dir("from-refs");
  const std::string path = dir.file("fleet.nckp");
  MonitorEngine eng;
  const std::vector<const SessionSpec*> specs = {&raw, &weighted};
  for (std::size_t id = 0; id < specs.size(); ++id) {
    eng.add_session(*specs[id]);
    for (const ChannelSpec& c : specs[id]->channels) {
      eng.feed(id, c.name, SignalView(c.reference).slice(0, 300));
    }
  }
  (void)eng.poll_inline();
  eng.checkpoint(path);

  const auto refs = state_spec_refs(path);
  ASSERT_EQ(refs.size(), specs.size());
  for (std::size_t id = 0; id < specs.size(); ++id) {
    SCOPED_TRACE(specs[id]->name);
    ByteWriter w;
    engine::save_session_spec(w, *specs[id]);
    const std::string buffered = dir.file("buffered.spec");
    nsync::signal::write_checkpoint_file(buffered, w.data());
    const std::string spec_file = MonitorEngine::spec_path(path, id);
    EXPECT_EQ(file_bytes(spec_file), file_bytes(buffered));

    const std::vector<std::uint8_t> payload =
        nsync::signal::read_checkpoint_file(spec_file);
    ASSERT_TRUE(refs[id].has_value());
    EXPECT_EQ(refs[id]->first, payload.size());
    EXPECT_EQ(refs[id]->second,
              nsync::signal::crc32(payload.data(), payload.size()));
  }
  // serialize() names the specs by the same references: the state file
  // and spec files restore to exactly the in-memory form.
  EXPECT_TRUE(MonitorEngine::restore(path).serialize() == eng.serialize());
}

TEST_F(CheckpointFleetTest, DrainedStateIsTheSameWhateverTheFeedChunking) {
  // The synchronizer ring keeps only frames a future window reads, so
  // what a drained engine serializes depends on the frames fed, not on
  // how they were chunked.
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::uint8_t>> halfway;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{113},
                                  std::size_t{1200}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    MonitorEngine eng = make_engine();
    if (chunk <= 113) {
      feed_rounds(eng, chunk, 0, 5 * 113 / chunk);
      halfway.push_back(eng.serialize());
      feed_rounds(eng, chunk, 5 * 113 / chunk, rounds_for(chunk));
    } else {
      feed_rounds(eng, chunk, 0, rounds_for(chunk));
    }
    payloads.push_back(eng.serialize());
  }
  EXPECT_TRUE(halfway[0] == halfway[1]);
  EXPECT_TRUE(payloads[0] == payloads[1]);
  EXPECT_TRUE(payloads[0] == payloads[2]);
}

TEST_F(CheckpointFleetTest, SerializedRingHoldsOnlyFramesAFutureWindowReads) {
  // Whatever the push size, after every push the serialized ring holds
  // fewer than n_win frames (another window would have completed
  // otherwise; n_win + n_hop bounds it with room to spare), and none once
  // the reference is exhausted.  The stream runs past the reference end.
  Signal stream = benign_observation(reference_, 70);
  const Signal tail = benign_observation(reference_, 71);
  for (std::size_t n = 0; n < tail.frames(); ++n) {
    stream.append_frame(std::span<const double>(
        tail.data() + n * tail.channels(), tail.channels()));
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{113}, std::size_t{1200},
        stream.frames()}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    RealtimeMonitor monitor(reference_, cfg_, thresholds_);
    bool exhausted_seen = false;
    for (std::size_t lo = 0; lo < stream.frames(); lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, stream.frames());
      (void)monitor.push(SignalView(stream).slice(lo, hi));
      ByteWriter w;
      monitor.save_state(w);
      // The monitor's state opens with its synchronizer's.
      core::DwmSynchronizer probe(reference_, cfg_.dwm);
      ByteReader r(w.data());
      probe.restore_state(r);
      const std::size_t ring = probe.observed().retained_frames();
      ASSERT_EQ(probe.observed().end(), hi);
      if (probe.reference_exhausted()) {
        exhausted_seen = true;
        ASSERT_EQ(ring, 0u) << "after frame " << hi;
      } else {
        ASSERT_LT(ring, cfg_.dwm.n_win) << "after frame " << hi;
        ASSERT_EQ(probe.observed().start(),
                  probe.windows() * cfg_.dwm.n_hop);
      }
    }
    EXPECT_TRUE(exhausted_seen);
  }
}

TEST(SpecOnceCheckpoint, PeriodicCheckpointOfPrintChurnSessionsIsSmall) {
  // print_churn-shaped sessions: raw MAG + ACC + AUD at the evaluation
  // rates with ~19 s references and RM3 DWM parameters, streamed in 1 s
  // blocks with a checkpoint after every poll.  The per-round state file
  // must stay within 10 % of the self-contained form.
  using nsync::sensors::SideChannel;
  constexpr double kSeconds = 19.0;
  const std::string dir = temp_path("spec-churn-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fleet.nckp";
  MonitorEngine eng;
  std::vector<Signal> refs;
  SessionSpec spec;
  for (const SideChannel ch :
       {SideChannel::kMag, SideChannel::kAcc, SideChannel::kAud}) {
    const double rate = nsync::eval::eval_channel_rate(ch);
    Rng rng(static_cast<std::uint64_t>(rate));
    const auto frames = static_cast<std::size_t>(kSeconds * rate);
    Signal ref(frames, nsync::sensors::side_channel_components(ch), rate);
    for (std::size_t n = 0; n < frames; ++n) {
      for (std::size_t c = 0; c < ref.channels(); ++c) ref(n, c) = rng.normal();
    }
    ChannelSpec c;
    c.name = nsync::sensors::side_channel_name(ch);
    c.reference = ref;
    c.config.sync = SyncMethod::kDwm;
    c.config.dwm =
        nsync::eval::dwm_params_for(nsync::eval::PrinterKind::kRm3, rate);
    c.thresholds = Thresholds{1e9, 1e9, 1e9};
    spec.channels.push_back(std::move(c));
    refs.push_back(std::move(ref));
  }
  for (const char* name : {"rm3-0", "rm3-1"}) {
    spec.name = name;
    eng.add_session(spec);
  }
  for (std::size_t second = 0; second < 4; ++second) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t c = 0; c < refs.size(); ++c) {
        const auto block = static_cast<std::size_t>(refs[c].sample_rate());
        eng.feed(s, spec.channels[c].name,
                 SignalView(refs[c]).slice(second * block, (second + 1) * block));
      }
    }
    (void)eng.poll_inline();
    eng.checkpoint(path);
  }
  const std::uintmax_t state = std::filesystem::file_size(path);
  const std::size_t self_contained = eng.serialize().size();
  EXPECT_LE(static_cast<double>(state), 0.10 * static_cast<double>(self_contained))
      << state << " state bytes vs " << self_contained << " self-contained";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nsync
