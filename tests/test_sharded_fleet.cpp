// ShardedFleet: shard-count invariance, admission/eviction, backpressure
// accounting and crash-recovery across shard counts.
//
// The load-bearing property is *bitwise shard invariance*: a session's
// verdict trail (fused verdict, first_alarm_window, per-channel detection
// flags, health, window counts) must be identical whether the fleet runs
// on a plain MonitorEngine or on 1/2/8 worker shards — sharding is pure
// scheduling.  The recovery matrix then pins
// the same property across a simulated crash at 25/50/75% of the stream
// for each shard count, and the adaptive-rounds test across kill images
// taken while per-device baselines adapt between prints.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/frame_queue.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/sharded_fleet.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "test_support.hpp"

using namespace nsync;
using engine::FeedStatus;
using engine::MonitorEngine;
using engine::OverflowPolicy;
using engine::ShardedFleet;
using engine::ShardedFleetOptions;
using test_support::snapshots;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

namespace {

constexpr std::size_t kFrames = 2048;
constexpr std::size_t kChunk = 160;

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

/// Fleet fixture shared by all tests: calibrated two-channel specs plus
/// deterministic observation streams (session 1 is the tampered one).
struct Fixture {
  std::vector<std::string> channels = {"ACC", "AUD"};
  std::vector<Signal> references;
  std::vector<core::Thresholds> thresholds;
  core::NsyncConfig cfg;
  std::vector<std::vector<Signal>> streams;  // [session][channel]

  explicit Fixture(std::size_t n_sessions, std::size_t attack_session = 1) {
    cfg.sync = core::SyncMethod::kDwm;
    cfg.dwm.n_win = 64;
    cfg.dwm.n_hop = 32;
    cfg.dwm.n_ext = 24;
    cfg.dwm.n_sigma = 12.0;
    cfg.dwm.eta = 0.2;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      Signal ref = make_reference(kFrames, 7 + c);
      core::NsyncIds ids(ref, cfg);
      std::vector<Signal> train;
      for (std::uint64_t s = 0; s < 3; ++s) {
        train.push_back(benign_observation(ref, 20 * (s + 1) + c));
      }
      ids.fit(train);
      // Short references calibrate on few windows; floor the fitted
      // thresholds (as the bench does) so benign runs stay benign while
      // the injected mid-stream corruption still alarms decisively.
      core::Thresholds th = ids.thresholds();
      th.c_c = std::max(3.0 * th.c_c, 64.0);
      th.h_c = std::max(3.0 * th.h_c, 8.0);
      th.v_c *= 3.0;
      thresholds.push_back(th);
      references.push_back(std::move(ref));
    }
    streams.resize(n_sessions);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      for (std::size_t c = 0; c < channels.size(); ++c) {
        streams[s].push_back(
            s == attack_session
                ? malicious_observation(references[c], 900 + 3 * s + c)
                : benign_observation(references[c], 900 + 3 * s + c));
      }
    }
  }

  [[nodiscard]] engine::SessionSpec spec(std::size_t s) const {
    engine::SessionSpec sp;
    sp.name = "printer-" + std::to_string(s);
    sp.rule = core::FusionRule::kAny;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      engine::ChannelSpec ch;
      ch.name = channels[c];
      ch.reference = references[c];
      ch.config = cfg;
      ch.thresholds = thresholds[c];
      sp.channels.push_back(std::move(ch));
    }
    return sp;
  }

  [[nodiscard]] std::size_t sessions() const { return streams.size(); }
};

/// Everything a verdict trail is made of, flattened for exact comparison.
struct Verdict {
  std::string name;
  bool evicted = false;
  bool intrusion = false;
  std::ptrdiff_t first_alarm_window = -1;
  std::size_t windows = 0;
  std::size_t frames_fed = 0;
  std::vector<std::string> channel_state;

  bool operator==(const Verdict&) const = default;
};

Verdict to_verdict(const engine::SessionSnapshot& s) {
  Verdict v;
  v.name = s.name;
  v.evicted = s.evicted;
  v.intrusion = s.intrusion;
  v.first_alarm_window = s.first_alarm_window;
  v.windows = s.windows;
  v.frames_fed = s.frames_fed;
  for (const auto& c : s.channels) {
    v.channel_state.push_back(
        c.name + ":" + (c.detection.intrusion ? "1" : "0") +
        std::to_string(static_cast<int>(c.detection.by_c_disp)) +
        std::to_string(static_cast<int>(c.detection.by_h_dist)) +
        std::to_string(static_cast<int>(c.detection.by_v_dist)) + ":faw=" +
        std::to_string(c.detection.first_alarm_window) + ":health=" +
        std::to_string(static_cast<int>(c.health)) + ":w=" +
        std::to_string(c.windows) + ":f=" + std::to_string(c.frames_fed));
  }
  return v;
}

/// Chunk-interleaved feed of every stream, starting at `offsets` (empty =
/// from zero), driving `feed_fn` exactly like an acquisition loop.
template <typename FeedFn>
void replay(const Fixture& fx, FeedFn&& feed_fn,
            std::vector<std::vector<std::size_t>> offsets = {}) {
  if (offsets.empty()) {
    offsets.assign(fx.sessions(),
                   std::vector<std::size_t>(fx.channels.size(), 0));
  }
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        const Signal& sig = fx.streams[s][c];
        const std::size_t off = offsets[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        feed_fn(s, fx.channels[c], SignalView(sig).slice(off, hi));
        offsets[s][c] = hi;
        if (hi < sig.frames()) more = true;
      }
    }
  }
}

std::vector<Verdict> run_monitor_engine(const Fixture& fx) {
  MonitorEngine eng;
  for (std::size_t s = 0; s < fx.sessions(); ++s) eng.add_session(fx.spec(s));
  replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
    eng.feed(s, ch, v);
    eng.poll_inline();
  });
  std::vector<Verdict> out;
  for (const auto& snap : snapshots(eng)) out.push_back(to_verdict(snap));
  return out;
}

std::vector<Verdict> run_sharded(const Fixture& fx, std::size_t shards,
                                 ShardedFleetOptions fopts = {}) {
  fopts.shards = shards;
  ShardedFleet fleet(fopts);
  for (std::size_t s = 0; s < fx.sessions(); ++s) {
    fleet.add_session(fx.spec(s));
  }
  replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
    const engine::FeedResult r = fleet.feed(s, ch, v);
    ASSERT_EQ(r.status, FeedStatus::kOk);
  });
  fleet.flush();
  std::vector<Verdict> out;
  for (const auto& snap : fleet.snapshots()) out.push_back(to_verdict(snap));
  return out;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("nsync_fleet_" + tag + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

}  // namespace

// --- Shard-count invariance -------------------------------------------------

// ---------------------------------------------------------------------------
// LatencyHistogram: log-linear buckets, <= 6 % relative error.

TEST(LatencyHistogram, ConstantLatencyReadsWithinSixPercent) {
  for (const std::int64_t us : {20, 700, 70000, 1500000}) {
    engine::LatencyHistogram h;
    for (int i = 0; i < 1000; ++i) h.record(std::chrono::microseconds(us));
    EXPECT_EQ(h.count(), 1000u);
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
      EXPECT_NEAR(h.quantile_us(q), static_cast<double>(us),
                  0.06 * static_cast<double>(us))
          << us << " us, q " << q;
    }
  }
  EXPECT_EQ(engine::LatencyHistogram{}.quantile_us(0.5), 0.0);
}

TEST(LatencyHistogram, UniformQuantilesWithinSixPercent) {
  // 1 .. 200 ms in 1 us steps: the exact q-quantile is 1000 + q * 199999.
  engine::LatencyHistogram h;
  for (std::int64_t us = 1000; us < 201000; ++us) {
    h.record(std::chrono::microseconds(us));
  }
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = 1000.0 + q * 199999.0;
    EXPECT_NEAR(h.quantile_us(q), exact, 0.06 * exact) << "q " << q;
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingTheUnion) {
  Rng rng(2024);
  engine::LatencyHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const auto ns = std::chrono::nanoseconds(
        static_cast<std::int64_t>(rng.exponential(1.0 / 3e7)));
    (i % 3 == 0 ? a : b).record(ns);
    all.record(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    EXPECT_EQ(a.quantile_us(q), all.quantile_us(q)) << "q " << q;
  }
}

TEST(ShardedFleet, VerdictsBitwiseInvariantAcrossShardCounts) {
  const Fixture fx(4, /*attack_session=*/1);
  const std::vector<Verdict> baseline = run_monitor_engine(fx);
  ASSERT_EQ(baseline.size(), 4u);
  EXPECT_FALSE(baseline[0].intrusion);
  EXPECT_TRUE(baseline[1].intrusion) << "attack session must alarm";
  EXPECT_GE(baseline[1].first_alarm_window, 0);

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::vector<Verdict> got = run_sharded(fx, shards);
    ASSERT_EQ(got.size(), baseline.size()) << "shards=" << shards;
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s], baseline[s])
          << "session " << s << " diverged at shards=" << shards;
    }
  }
}

TEST(ShardedFleet, ShardMappingIsRoundRobin) {
  ShardedFleetOptions opts;
  opts.shards = 3;
  ShardedFleet fleet(opts);
  const Fixture fx(5, /*attack_session=*/99);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_EQ(fleet.add_session(fx.spec(s)), s);
    EXPECT_EQ(fleet.shard_of(s), s % 3);
  }
  EXPECT_EQ(fleet.sessions(), 5u);
  const engine::FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.per_shard.size(), 3u);
  EXPECT_EQ(stats.per_shard[0].sessions, 2u);
  EXPECT_EQ(stats.per_shard[1].sessions, 2u);
  EXPECT_EQ(stats.per_shard[2].sessions, 1u);
}

TEST(ShardedFleet, ZeroShardsIsRefused) {
  // Every shard runs a queue and a worker thread, so a fleet needs one.
  ShardedFleetOptions opts;
  opts.shards = 0;
  EXPECT_THROW(ShardedFleet{opts}, std::invalid_argument);
  TempDir dir("zero");
  EXPECT_THROW((void)ShardedFleet::restore(dir.str(), opts),
               std::invalid_argument);
}

// --- Admission / eviction ---------------------------------------------------

TEST(ShardedFleet, FeedValidationIsTyped) {
  const Fixture fx(1, /*attack_session=*/99);
  ShardedFleetOptions opts;
  opts.shards = 2;
  ShardedFleet fleet(opts);
  fleet.add_session(fx.spec(0));

  Signal good(8, 2, 100.0);
  Signal narrow(8, 1, 100.0);
  EXPECT_EQ(fleet.feed(0, "ACC", good).status, FeedStatus::kOk);
  EXPECT_EQ(fleet.feed(7, "ACC", good).status, FeedStatus::kUnknownSession);
  EXPECT_EQ(fleet.feed(0, "MAG", good).status, FeedStatus::kUnknownChannel);
  EXPECT_EQ(fleet.feed(0, "ACC", narrow).status, FeedStatus::kChannelMismatch);
  EXPECT_THROW(fleet.evict_session(7), std::out_of_range);
}

TEST(ShardedFleet, EvictionReleasesSessionAndKeepsIdsStable) {
  const Fixture fx(3, /*attack_session=*/99);
  ShardedFleetOptions opts;
  opts.shards = 2;
  ShardedFleet fleet(opts);
  for (std::size_t s = 0; s < 3; ++s) fleet.add_session(fx.spec(s));

  Signal chunk(64, 2, 100.0);
  ASSERT_EQ(fleet.feed(1, "ACC", chunk).status, FeedStatus::kOk);
  fleet.evict_session(1);
  fleet.evict_session(1);  // idempotent
  // The eviction is ordered behind the accepted frames; new feeds fail
  // immediately at the ingest boundary.
  EXPECT_EQ(fleet.feed(1, "ACC", chunk).status, FeedStatus::kEvicted);
  fleet.flush();

  const engine::SessionSnapshot snap = fleet.snapshot(1);
  EXPECT_TRUE(snap.evicted);
  EXPECT_EQ(snap.name, "printer-1");
  EXPECT_TRUE(snap.channels.empty());
  // Neighbors are untouched and ids stay dense.
  EXPECT_FALSE(fleet.snapshot(0).evicted);
  EXPECT_FALSE(fleet.snapshot(2).evicted);
  EXPECT_EQ(fleet.stats().evicted, 1u);
  // A new admission gets the next id, never a recycled one.
  ShardedFleet* f = &fleet;
  EXPECT_EQ(f->add_session(fx.spec(0)), 3u);
}

// --- Backpressure / load shedding -------------------------------------------

TEST(FrameQueue, DropOldestShedsFeedBatchesButNeverEvictions) {
  engine::FrameQueue q(/*capacity_frames=*/64, OverflowPolicy::kDropOldest);
  engine::FrameBatch feed;
  feed.kind = engine::FrameBatch::Kind::kFeed;
  feed.session = 0;
  feed.channel = "ACC";
  feed.frames = Signal(48, 1, 100.0);
  ASSERT_TRUE(q.push(feed).accepted);

  engine::FrameBatch evict;
  evict.kind = engine::FrameBatch::Kind::kEvict;
  evict.session = 0;
  ASSERT_TRUE(q.push(evict).accepted);

  // 48 queued + 48 new > 64: the oldest *feed* batch is shed; the evict
  // control batch survives.
  engine::FrameBatch feed2 = feed;
  const engine::FrameQueue::PushResult r = q.push(feed2);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.shed_frames, 48u);

  std::vector<engine::FrameBatch> drained;
  ASSERT_TRUE(q.pop_all(drained));
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].kind, engine::FrameBatch::Kind::kEvict);
  EXPECT_EQ(drained[1].kind, engine::FrameBatch::Kind::kFeed);
  q.mark_processed();

  const engine::FrameQueueStats st = q.stats();
  EXPECT_EQ(st.shed_frames, 48u);
  EXPECT_EQ(st.shed_batches, 1u);
  EXPECT_EQ(st.enqueued_frames, 96u);
  EXPECT_EQ(st.queued_frames, 0u);
}

TEST(FrameQueue, RejectPolicyRefusesPastHighWaterMark) {
  engine::FrameQueue q(/*capacity_frames=*/32, OverflowPolicy::kReject);
  engine::FrameBatch b;
  b.kind = engine::FrameBatch::Kind::kFeed;
  b.frames = Signal(24, 1, 100.0);
  ASSERT_TRUE(q.push(b).accepted);
  engine::FrameBatch b2 = b;
  EXPECT_FALSE(q.push(b2).accepted);
  EXPECT_EQ(q.stats().rejected_frames, 24u);
  EXPECT_EQ(q.stats().rejected_batches, 1u);
  // An oversized batch is still accepted when the queue is empty — a
  // frame larger than the high-water mark must not be unfeedable.
  std::vector<engine::FrameBatch> drained;
  ASSERT_TRUE(q.pop_all(drained));
  q.mark_processed();
  engine::FrameBatch huge;
  huge.kind = engine::FrameBatch::Kind::kFeed;
  huge.frames = Signal(1000, 1, 100.0);
  EXPECT_TRUE(q.push(huge).accepted);
}

// Regression: a push into a closed queue used to land in rejected_* under
// every policy, so POLL_STATS conflated shutdown-drain refusals with
// genuine kReject overload.  The two refusal kinds are now accounted
// separately.
TEST(FrameQueue, ClosedRefusalsDoNotCountAsRejects) {
  engine::FrameQueue q(/*capacity_frames=*/32, OverflowPolicy::kReject);
  engine::FrameBatch b;
  b.kind = engine::FrameBatch::Kind::kFeed;
  b.frames = Signal(24, 1, 100.0);
  ASSERT_TRUE(q.push(b).accepted);
  // Genuine overload refusal: rejected_*.
  engine::FrameBatch b2 = b;
  EXPECT_FALSE(q.push(b2).accepted);
  // Shutdown-drain refusal: closed_*, NOT rejected_*.
  q.close();
  engine::FrameBatch b3 = b;
  EXPECT_FALSE(q.push(b3).accepted);
  const engine::FrameQueueStats st = q.stats();
  EXPECT_EQ(st.rejected_frames, 24u);
  EXPECT_EQ(st.rejected_batches, 1u);
  EXPECT_EQ(st.closed_frames, 24u);
  EXPECT_EQ(st.closed_batches, 1u);
}

TEST(FrameQueue, BlockPolicyClosedWhileWaitingCountsAsClosed) {
  engine::FrameQueue q(/*capacity_frames=*/16, OverflowPolicy::kBlock);
  engine::FrameBatch b;
  b.kind = engine::FrameBatch::Kind::kFeed;
  b.frames = Signal(16, 1, 100.0);
  ASSERT_TRUE(q.push(b).accepted);
  // A second producer blocks on space; close() wakes it and the refusal
  // must be accounted as a closed-queue refusal, not overload.
  std::thread producer([&q] {
    engine::FrameBatch blocked;
    blocked.kind = engine::FrameBatch::Kind::kFeed;
    blocked.frames = Signal(16, 1, 100.0);
    EXPECT_FALSE(q.push(blocked).accepted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  const engine::FrameQueueStats st = q.stats();
  EXPECT_EQ(st.rejected_frames, 0u);
  EXPECT_EQ(st.rejected_batches, 0u);
  EXPECT_EQ(st.closed_frames, 16u);
  EXPECT_EQ(st.closed_batches, 1u);
}

TEST(FrameQueue, DeferredPushesOweOneWakeUntilWakeOrPop) {
  using Wake = engine::FrameQueue::Wake;
  engine::FrameQueue q(/*capacity_frames=*/0, OverflowPolicy::kBlock);
  engine::FrameBatch b;
  b.kind = engine::FrameBatch::Kind::kFeed;
  b.frames = Signal(4, 1, 100.0);
  for (int i = 0; i < 3; ++i) {
    engine::FrameBatch copy = b;
    ASSERT_TRUE(q.push(std::move(copy), Wake::kDeferred).accepted);
  }
  EXPECT_EQ(q.stats().wakeups, 0u);
  q.wake();
  EXPECT_EQ(q.stats().wakeups, 1u) << "three deferred pushes, one wake";
  q.wake();
  EXPECT_EQ(q.stats().wakeups, 1u) << "nothing owed after the wake";

  // A consumer that popped the batches leaves nothing owed either.
  std::vector<engine::FrameBatch> drained;
  ASSERT_TRUE(q.pop_all(drained));
  q.mark_processed();
  engine::FrameBatch late = b;
  ASSERT_TRUE(q.push(std::move(late), Wake::kDeferred).accepted);
  ASSERT_TRUE(q.pop_all(drained));
  q.mark_processed();
  q.wake();
  EXPECT_EQ(q.stats().wakeups, 1u);

  engine::FrameBatch now = b;
  ASSERT_TRUE(q.push(std::move(now)).accepted);
  EXPECT_EQ(q.stats().wakeups, 2u) << "an immediate push signals at once";
}

TEST(FrameQueue, BlockedDeferredPushWakesTheConsumerBeforeWaiting) {
  using Wake = engine::FrameQueue::Wake;
  engine::FrameQueue q(/*capacity_frames=*/4, OverflowPolicy::kBlock);
  std::size_t consumed = 0;
  std::thread consumer([&] {
    std::vector<engine::FrameBatch> batches;
    while (q.pop_all(batches)) {
      for (const auto& b : batches) consumed += b.frames.frames();
      q.mark_processed();
    }
  });
  // Every push after the first overflows the queue.  The first push left
  // the consumer asleep; unless the blocked push wakes it, nothing ever
  // makes room.
  auto producer = std::async(std::launch::async, [&q] {
    for (int i = 0; i < 8; ++i) {
      engine::FrameBatch b;
      b.kind = engine::FrameBatch::Kind::kFeed;
      b.frames = Signal(3, 1, 100.0);
      if (!q.push(std::move(b), Wake::kDeferred).accepted) return false;
    }
    q.wake();
    return true;
  });
  const bool finished = producer.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  EXPECT_TRUE(finished) << "deferred kBlock pushes deadlocked";
  if (finished) q.wait_idle();
  q.close();  // releases a deadlocked producer too
  EXPECT_EQ(producer.get(), finished);
  consumer.join();
  if (finished) {
    EXPECT_EQ(consumed, 24u);
  }
}

TEST(FrameQueue, DeferredPushThatOverflowsWakesTheConsumerUnderEveryPolicy) {
  using Wake = engine::FrameQueue::Wake;
  auto batch = [] {
    engine::FrameBatch b;
    b.kind = engine::FrameBatch::Kind::kFeed;
    b.frames = Signal(3, 1, 100.0);
    return b;
  };
  for (const OverflowPolicy policy :
       {OverflowPolicy::kDropOldest, OverflowPolicy::kReject}) {
    SCOPED_TRACE(static_cast<int>(policy));
    engine::FrameQueue q(/*capacity_frames=*/4, policy);
    ASSERT_TRUE(q.push(batch(), Wake::kDeferred).accepted);
    EXPECT_EQ(q.stats().wakeups, 0u);
    // The second batch overflows: the consumer the first one left asleep
    // is woken before the policy sheds or refuses anything.
    const engine::FrameQueue::PushResult r = q.push(batch(), Wake::kDeferred);
    EXPECT_EQ(q.stats().wakeups, 1u) << "an overflow pays the owed wake";
    if (policy == OverflowPolicy::kDropOldest) {
      EXPECT_TRUE(r.accepted);
      EXPECT_EQ(r.shed_frames, 3u);
      q.wake();
      EXPECT_EQ(q.stats().wakeups, 2u) << "the accepted batch owes its own";
    } else {
      EXPECT_FALSE(r.accepted);
      q.wake();
      EXPECT_EQ(q.stats().wakeups, 1u) << "a refused batch owes nothing";
    }
  }
}

TEST(ShardedFleet, LoadShedAccountingBalances) {
  const Fixture fx(2, /*attack_session=*/99);
  ShardedFleetOptions opts;
  opts.shards = 1;
  opts.queue_capacity_frames = 512;
  opts.overflow = OverflowPolicy::kDropOldest;
  ShardedFleet fleet(opts);
  for (std::size_t s = 0; s < 2; ++s) fleet.add_session(fx.spec(s));

  std::size_t fed = 0;
  std::size_t shed_from_results = 0;
  replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
    const engine::FeedResult r = fleet.feed(s, ch, v);
    ASSERT_TRUE(r.status == FeedStatus::kOk || r.status == FeedStatus::kShed);
    fed += v.frames();
    shed_from_results += r.shed_frames;
  });
  fleet.flush();

  const engine::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed_frames, shed_from_results);
  EXPECT_EQ(stats.rejected_frames, 0u);
  // Every fed frame was either processed by the engine or accounted shed.
  std::size_t processed = 0;
  for (const auto& snap : fleet.snapshots()) processed += snap.frames_fed;
  EXPECT_EQ(processed + stats.shed_frames, fed);
}

// --- Crash recovery ---------------------------------------------------------

TEST(ShardedFleet, RecoveryMatrixBitwiseAcrossKillPointsAndShardCounts) {
  const Fixture fx(3, /*attack_session=*/1);
  const std::vector<Verdict> uninterrupted = run_monitor_engine(fx);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const int kill_pct : {25, 50, 75}) {
      TempDir dir("recover");
      ShardedFleetOptions opts;
      opts.shards = shards;
      opts.checkpoint_dir = dir.str();

      // Phase 1: feed the first kill_pct% of every stream, then drop the
      // fleet without any further checkpoint — flush + checkpoint_all
      // stands in for "the periodic checkpoint that happened to complete
      // right before the SIGKILL".
      {
        ShardedFleet fleet(opts);
        for (std::size_t s = 0; s < fx.sessions(); ++s) {
          fleet.add_session(fx.spec(s));
        }
        for (std::size_t s = 0; s < fx.sessions(); ++s) {
          for (std::size_t c = 0; c < fx.channels.size(); ++c) {
            const Signal& sig = fx.streams[s][c];
            const std::size_t cut =
                sig.frames() * static_cast<std::size_t>(kill_pct) / 100;
            for (std::size_t off = 0; off < cut; off += kChunk) {
              const std::size_t hi = std::min(off + kChunk, cut);
              ASSERT_EQ(
                  fleet.feed(s, fx.channels[c], SignalView(sig).slice(off, hi))
                      .status,
                  FeedStatus::kOk);
            }
          }
        }
        fleet.flush();
        fleet.checkpoint_all();
      }

      // Phase 2: restore and resume each channel at its recorded offset.
      std::unique_ptr<ShardedFleet> fleet =
          ShardedFleet::restore(dir.str(), opts);
      ASSERT_EQ(fleet->sessions(), fx.sessions());
      std::vector<std::vector<std::size_t>> offsets(
          fx.sessions(), std::vector<std::size_t>(fx.channels.size(), 0));
      for (std::size_t s = 0; s < fx.sessions(); ++s) {
        const engine::SessionSnapshot snap = fleet->snapshot(s);
        for (const auto& ch : snap.channels) {
          for (std::size_t c = 0; c < fx.channels.size(); ++c) {
            if (fx.channels[c] == ch.name) offsets[s][c] = ch.frames_fed;
          }
        }
      }
      replay(
          fx,
          [&](std::size_t s, const std::string& ch, const SignalView& v) {
            ASSERT_EQ(fleet->feed(s, ch, v).status, FeedStatus::kOk);
          },
          offsets);
      fleet->flush();

      for (std::size_t s = 0; s < fx.sessions(); ++s) {
        EXPECT_EQ(to_verdict(fleet->snapshot(s)), uninterrupted[s])
            << "shards=" << shards << " kill=" << kill_pct << "% session "
            << s;
      }
    }
  }
}

TEST(ShardedFleet, AdmissionIsDurableWithoutExplicitCheckpoint) {
  TempDir dir("admit");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  const Fixture fx(3, /*attack_session=*/99);
  {
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < 3; ++s) fleet.add_session(fx.spec(s));
    // No flush, no checkpoint_all: admission alone must be durable.
  }
  const std::unique_ptr<ShardedFleet> restored =
      ShardedFleet::restore(dir.str(), opts);
  ASSERT_EQ(restored->sessions(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    const engine::SessionSnapshot snap = restored->snapshot(s);
    EXPECT_EQ(snap.name, "printer-" + std::to_string(s));
    EXPECT_EQ(snap.frames_fed, 0u);
  }
}

TEST(ShardedFleet, ShardThatNeverHeldASessionResumes) {
  // What a SIGKILL right after the acknowledgement leaves: one session on
  // shard 0, and shard 1 has never admitted or polled anything.
  TempDir dir("never-used");
  TempDir copy("never-used-copy");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  const Fixture fx(1, /*attack_session=*/99);
  ShardedFleet fleet(opts);
  fleet.add_session(fx.spec(0));
  std::filesystem::copy(dir.str(), copy.str(),
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  const std::unique_ptr<ShardedFleet> restored =
      ShardedFleet::restore(copy.str(), opts);
  ASSERT_EQ(restored->sessions(), 1u);
  EXPECT_EQ(restored->snapshot(0).name, "printer-0");
  EXPECT_EQ(restored->shard_of(0), 0u);
}

TEST(ShardedFleet, EvictionSurvivesRestore) {
  TempDir dir("evict");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  const Fixture fx(2, /*attack_session=*/99);
  {
    ShardedFleet fleet(opts);
    fleet.add_session(fx.spec(0));
    fleet.add_session(fx.spec(1));
    fleet.evict_session(0);
    fleet.flush();  // the worker checkpoints after processing the evict
  }
  const std::unique_ptr<ShardedFleet> restored =
      ShardedFleet::restore(dir.str(), opts);
  ASSERT_EQ(restored->sessions(), 2u);
  EXPECT_TRUE(restored->snapshot(0).evicted);
  EXPECT_FALSE(restored->snapshot(1).evicted);
  Signal chunk(8, 2, 100.0);
  EXPECT_EQ(restored->feed(0, "ACC", chunk).status, FeedStatus::kEvicted);
  EXPECT_EQ(restored->feed(1, "ACC", chunk).status, FeedStatus::kOk);
}

TEST(ShardedFleet, RestoreRejectsMissingAndInconsistentShardFiles) {
  const Fixture fx(3, /*attack_session=*/99);
  TempDir dir("badset");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  {
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < 3; ++s) fleet.add_session(fx.spec(s));
    fleet.flush();
    fleet.checkpoint_all();
  }

  // Missing shard file: the checkpoint set is incomplete.
  ShardedFleetOptions three = opts;
  three.shards = 3;
  try {
    (void)ShardedFleet::restore(dir.str(), three);
    FAIL() << "restore with a missing shard file must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kIo);
  }

  // Swapped shard files: shard 0's file now holds 1 session where the
  // round-robin mapping demands 2 — no id sequence produces that split.
  const std::string f0 = dir.str() + "/fleet.0.nckp";
  const std::string f1 = dir.str() + "/fleet.1.nckp";
  std::filesystem::rename(f0, f0 + ".tmp");
  std::filesystem::rename(f1, f0);
  std::filesystem::rename(f0 + ".tmp", f1);
  try {
    (void)ShardedFleet::restore(dir.str(), opts);
    FAIL() << "restore with swapped shard files must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
}

TEST(ShardedFleet, SwappedShardFilesWithEqualCountsAreMismatch) {
  // Two sessions per shard: the round-robin counts cannot tell the files
  // apart, but each state file names its specs by size and CRC, and the
  // spec files beside `fleet.0.nckp` are shard 0's.
  const Fixture fx(4, /*attack_session=*/99);
  TempDir dir("swap");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  {
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < 4; ++s) fleet.add_session(fx.spec(s));
    fleet.flush();
  }
  const std::string f0 = dir.str() + "/fleet.0.nckp";
  const std::string f1 = dir.str() + "/fleet.1.nckp";
  std::filesystem::rename(f0, dir.str() + "/swap");
  std::filesystem::rename(f1, f0);
  std::filesystem::rename(dir.str() + "/swap", f1);
  try {
    (void)ShardedFleet::restore(dir.str(), opts);
    FAIL() << "restore with swapped shard files must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
}

TEST(ShardedFleet, EvictionRoundWritesOneCheckpoint) {
  // A round that applies an EVICT makes the tombstone durable with exactly
  // one shard checkpoint, whether or not the periodic policy fires.
  const Fixture fx(2, /*attack_session=*/99);
  for (const std::size_t every : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("checkpoint_every_polls " + std::to_string(every));
    TempDir dir("evict-once");
    ShardedFleetOptions opts;
    opts.shards = 1;
    opts.checkpoint_dir = dir.str();
    opts.checkpoint_every_polls = every;
    ShardedFleet fleet(opts);
    fleet.add_session(fx.spec(0));
    fleet.add_session(fx.spec(1));
    ASSERT_EQ(fleet.feed(0, "ACC", SignalView(fx.streams[0][0]).slice(0, kChunk))
                  .status,
              FeedStatus::kOk);
    fleet.flush();
    const std::uint64_t before = fleet.stats().per_shard[0].checkpoint_writes;
    ASSERT_TRUE(fleet.evict_session(1));
    fleet.flush();
    EXPECT_EQ(fleet.stats().per_shard[0].checkpoint_writes, before + 1);
    const std::unique_ptr<ShardedFleet> restored =
        ShardedFleet::restore(dir.str(), opts);
    EXPECT_TRUE(restored->snapshot(1).evicted);
  }
}

TEST(ShardedFleet, FedWindowsAreCounted) {
  // The engine's feed() processes the windows a batch completes; the
  // shard counts them, so the stats agree with the sessions' own counts.
  const Fixture fx(2, /*attack_session=*/99);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFleetOptions opts;
    opts.shards = shards;
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      fleet.add_session(fx.spec(s));
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        ASSERT_EQ(fleet.feed(s, fx.channels[c],
                             SignalView(fx.streams[s][c]).slice(0, 1200))
                      .status,
                  FeedStatus::kOk);
      }
    }
    fleet.flush();
    std::uint64_t windows = 0;
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      for (const auto& c : fleet.snapshot(s).channels) windows += c.windows;
    }
    EXPECT_GT(windows, 0u);
    EXPECT_EQ(fleet.stats().windows, windows);
  }
}

TEST(ShardedFleet, SettleWaitsForFramesAcceptedBeforeIt) {
  // A slow worker: every batch takes 20 ms to apply.  settle() returns
  // only once the frames accepted before it are applied, so the snapshot
  // right after it counts them all (what a re-attaching client reads its
  // resume offsets from).
  const Fixture fx(1, /*attack_session=*/99);
  ShardedFleetOptions opts;
  opts.shards = 1;
  opts.worker_fault_hook = [](std::size_t, const engine::FrameBatch&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  ShardedFleet fleet(opts);
  fleet.add_session(fx.spec(0));
  std::size_t fed = 0;
  for (int k = 0; k < 3; ++k) {
    ASSERT_EQ(fleet.feed(0, "ACC",
                         SignalView(fx.streams[0][0]).slice(fed, fed + kChunk))
                  .status,
              FeedStatus::kOk);
    fed += kChunk;
  }
  fleet.settle(0);
  EXPECT_EQ(fleet.snapshot(0).frames_fed, fed);

  // A barrier behind a batch that kills the worker is dropped with the
  // backlog (or refused by the closed queue): settle() returns, not hangs.
  ShardedFleetOptions failing;
  failing.shards = 1;
  failing.worker_fault_hook = [](std::size_t, const engine::FrameBatch&) {
    throw std::runtime_error("injected worker fault");
  };
  ShardedFleet broken(failing);
  broken.add_session(fx.spec(0));
  ASSERT_EQ(
      broken.feed(0, "ACC", SignalView(fx.streams[0][0]).slice(0, kChunk))
          .status,
      FeedStatus::kOk);
  broken.settle(0);
  EXPECT_EQ(broken.stats().failed_shards, 1u);
}

TEST(ShardedFleet, ResumedDirectoryHoldsOneSpecFilePerLiveSession) {
  const Fixture fx(3, /*attack_session=*/99);
  TempDir dir("specs");
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = dir.str();
  {
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < 3; ++s) fleet.add_session(fx.spec(s));
    fleet.evict_session(1);
    fleet.flush();
  }
  // What a SIGKILL during another daemon's write leaves behind.
  std::ofstream(dir.str() + "/fleet.1.nckp.999999999.0.tmp") << "torn";
  std::ofstream(dir.str() + "/fleet.0.nckp.s5.spec") << "orphan";
  const std::unique_ptr<ShardedFleet> restored =
      ShardedFleet::restore(dir.str(), opts);
  const engine::FleetStats st = restored->stats();
  std::size_t specs = 0;
  std::size_t tmps = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.str())) {
    const std::string ext = e.path().extension().string();
    specs += ext == ".spec" ? 1 : 0;
    tmps += ext == ".tmp" ? 1 : 0;
  }
  EXPECT_EQ(specs, st.sessions - st.evicted);
  EXPECT_EQ(specs, 2u);
  EXPECT_EQ(tmps, 0u);
}

// --- Fusion policies across shards ------------------------------------------

TEST(ShardedFleet, FusionOverrideReplacesAdmittedSpecPolicies) {
  // The daemon-side --fusion knob: every admitted session fuses with the
  // override regardless of what its spec carried.
  const Fixture fx(2, /*attack_session=*/1);
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.fusion_override =
      std::make_shared<core::VotingPolicy>(core::FusionRule::kAll);
  ShardedFleet fleet(opts);
  for (std::size_t s = 0; s < fx.sessions(); ++s) {
    fleet.add_session(fx.spec(s));  // the spec itself says kAny
  }
  replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
    ASSERT_EQ(fleet.feed(s, ch, v).status, FeedStatus::kOk);
  });
  fleet.flush();
  for (const auto& snap : fleet.snapshots()) {
    EXPECT_EQ(snap.policy, "all") << snap.name;
  }
  // Verdicts under the override: the tampered session corrupts both
  // channels, so even kAll convicts it; the benign one stays clean.
  EXPECT_FALSE(fleet.snapshot(0).intrusion);
  EXPECT_TRUE(fleet.snapshot(1).intrusion);
}

TEST(ShardedFleet, WeightedSessionsAreShardInvariant) {
  // Weighted fusion must be pure scheduling too: identical fused scores,
  // policies and verdicts on a plain MonitorEngine and any shard count.
  const Fixture fx(3, /*attack_session=*/1);
  auto policy = std::make_shared<core::WeightedPolicy>();
  policy->fit(fx.channels,
              {{0.21, 0.47}, {0.33, 0.12}, {0.27, 0.30}, {0.19, 0.41}});
  const auto weighted_spec = [&](std::size_t s) {
    engine::SessionSpec sp = fx.spec(s);
    sp.policy = policy;
    return sp;
  };

  MonitorEngine eng;
  for (std::size_t s = 0; s < fx.sessions(); ++s) {
    eng.add_session(weighted_spec(s));
  }
  replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
    eng.feed(s, ch, v);
    eng.poll_inline();
  });
  const std::vector<engine::SessionSnapshot> baseline = snapshots(eng);
  EXPECT_EQ(baseline[0].policy, "weighted");
  EXPECT_FALSE(baseline[0].intrusion);
  EXPECT_TRUE(baseline[1].intrusion);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedFleetOptions opts;
    opts.shards = shards;
    ShardedFleet fleet(opts);
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      fleet.add_session(weighted_spec(s));
    }
    replay(fx, [&](std::size_t s, const std::string& ch, const SignalView& v) {
      ASSERT_EQ(fleet.feed(s, ch, v).status, FeedStatus::kOk);
    });
    fleet.flush();
    const std::vector<engine::SessionSnapshot> got = fleet.snapshots();
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(to_verdict(got[s]), to_verdict(baseline[s]));
      EXPECT_EQ(got[s].policy, baseline[s].policy);
      EXPECT_EQ(got[s].fused_score, baseline[s].fused_score);
      for (std::size_t c = 0; c < got[s].channels.size(); ++c) {
        EXPECT_EQ(got[s].channels[c].score, baseline[s].channels[c].score);
        EXPECT_EQ(got[s].channels[c].weight, baseline[s].channels[c].weight);
      }
    }
  }
}

// --- Adaptive rounds across kill points -------------------------------------

namespace {

constexpr std::size_t kRoundPrinters = 3;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kAttackedPrinter = 1;
// Feed passes before the mid-stream flush: about half of a kFrames print.
constexpr std::size_t kMidStreamPasses = kFrames / kChunk / 2;

/// Moves on the first fold (as in test_baseline_registry.cpp), with a
/// re-learning margin wide enough that benign maxima pull the target above
/// the factory calibration, so the baselines visibly adapt.
engine::AdaptationPolicy eager_policy() {
  engine::AdaptationPolicy p;
  p.history = 4;
  p.min_prints = 1;
  p.max_step = 0.10;
  p.max_drift = 0.5;
  p.r = 8.0;
  return p;
}

ShardedFleetOptions rounds_options(const std::string& checkpoint_dir,
                                   const std::string& baseline_dir) {
  ShardedFleetOptions opts;
  opts.shards = 2;
  opts.checkpoint_dir = checkpoint_dir;
  opts.baseline.adaptive = true;
  opts.baseline.dir = baseline_dir;
  opts.baseline.policy = eager_policy();
  return opts;
}

/// Every print of every round, [round][printer][channel], seeded by round
/// so each print is distinct but reproducible.
std::vector<std::vector<std::vector<Signal>>> round_prints(const Fixture& fx) {
  std::vector<std::vector<std::vector<Signal>>> prints(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    prints[r].resize(kRoundPrinters);
    for (std::size_t s = 0; s < kRoundPrinters; ++s) {
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        const std::uint64_t seed = 900 + 10000 * r + 3 * s + c;
        prints[r][s].push_back(
            s == kAttackedPrinter
                ? malicious_observation(fx.references[c], seed)
                : benign_observation(fx.references[c], seed));
      }
    }
  }
  return prints;
}

/// Where drive_rounds() hands out a disk image: right after the mid-stream
/// flush(), and right after the flush() that follows a round's evictions.
enum class RoundPoint { kMidStream, kEvicted };

/// A print's verdict trail plus the thresholds it was armed with, which
/// the registry resolved at its admission.
struct PrintVerdict {
  Verdict verdict;
  std::vector<double> thresholds;  // c, h, v per channel

  bool operator==(const PrintVerdict&) const = default;
};

/// Print-at-a-time operation, as an acquisition host runs it: round r
/// admits printer s as print id r * kRoundPrinters + s (model "mk3"),
/// streams every print, flush()es, records the verdicts, evicts in id order
/// (folding each print into its shard's registry) and flush()es so the next
/// round resolves against the updated baselines.  On a restored fleet it
/// skips the prints evicted before the kill, resumes the live ones at their
/// frames_fed and admits the rest.  Returns the verdicts it recorded, by id.
std::map<std::size_t, PrintVerdict> drive_rounds(
    ShardedFleet& fleet, const Fixture& fx,
    const std::vector<std::vector<std::vector<Signal>>>& prints,
    const std::function<void(std::size_t, RoundPoint)>& on_image = {}) {
  std::map<std::size_t, PrintVerdict> out;
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<std::size_t> live;
    std::vector<std::vector<std::size_t>> offsets(
        kRoundPrinters, std::vector<std::size_t>(fx.channels.size(), 0));
    for (std::size_t s = 0; s < kRoundPrinters; ++s) {
      const std::size_t id = r * kRoundPrinters + s;
      if (id < fleet.sessions()) {
        const engine::SessionSnapshot snap = fleet.snapshot(id);
        if (snap.evicted) continue;  // reported and folded before the kill
        for (const auto& ch : snap.channels) {
          for (std::size_t c = 0; c < fx.channels.size(); ++c) {
            if (fx.channels[c] == ch.name) offsets[s][c] = ch.frames_fed;
          }
        }
      } else {
        engine::SessionSpec spec = fx.spec(s);
        spec.name = "printer-" + std::to_string(s) + "-print-" +
                    std::to_string(r);
        spec.model = "mk3";
        // The fixture's v margin fits its own seeds; the per-round prints
        // spread wider, and a doubled margin keeps most of them benign, so
        // they fold into the baseline instead of freezing.
        for (auto& ch : spec.channels) ch.thresholds.v_c *= 2.0;
        EXPECT_EQ(fleet.add_session(std::move(spec)), id);
      }
      live.push_back(s);
    }
    bool more = true;
    for (std::size_t pass = 0; more; ++pass) {
      more = false;
      for (const std::size_t s : live) {
        for (std::size_t c = 0; c < fx.channels.size(); ++c) {
          const Signal& sig = prints[r][s][c];
          const std::size_t off = offsets[s][c];
          if (off >= sig.frames()) continue;
          const std::size_t hi = std::min(off + kChunk, sig.frames());
          EXPECT_EQ(fleet
                        .feed(r * kRoundPrinters + s, fx.channels[c],
                              SignalView(sig).slice(off, hi))
                        .status,
                    FeedStatus::kOk);
          offsets[s][c] = hi;
          if (hi < sig.frames()) more = true;
        }
      }
      if (pass + 1 == kMidStreamPasses) {
        fleet.flush();
        if (on_image) on_image(r, RoundPoint::kMidStream);
      }
    }
    fleet.flush();
    for (const std::size_t s : live) {
      const std::size_t id = r * kRoundPrinters + s;
      const engine::SessionSnapshot snap = fleet.snapshot(id);
      PrintVerdict& v = out[id];
      v.verdict = to_verdict(snap);
      for (const auto& ch : snap.channels) {
        v.thresholds.insert(v.thresholds.end(), {ch.thresholds.c_c,
                                                 ch.thresholds.h_c,
                                                 ch.thresholds.v_c});
      }
    }
    for (const std::size_t s : live) {
      fleet.evict_session(r * kRoundPrinters + s);
    }
    fleet.flush();
    if (on_image) on_image(r, RoundPoint::kEvicted);
  }
  return out;
}

/// One registry entry, flattened for exact comparison.
struct BaselineRow {
  std::size_t shard = 0;
  std::string key;  // model/profile
  double anchor_c = 0.0, anchor_h = 0.0, anchor_v = 0.0;
  double c = 0.0, h = 0.0, v = 0.0;
  std::uint64_t prints = 0;
  std::uint64_t frozen = 0;

  bool operator==(const BaselineRow&) const = default;
};

std::vector<BaselineRow> baseline_rows(const ShardedFleet& fleet) {
  std::vector<BaselineRow> rows;
  for (const auto& sh : fleet.baselines()) {
    for (const auto& e : sh.entries) {
      const engine::DeviceBaseline& b = e.baseline;
      rows.push_back({sh.shard, e.model + "/" + e.profile, b.anchor.c_c,
                      b.anchor.h_c, b.anchor.v_c, b.current.c_c,
                      b.current.h_c, b.current.v_c, b.prints, b.frozen});
    }
  }
  return rows;
}

}  // namespace

TEST(ShardedFleet, AdaptiveRoundsRecoverBitwiseAcrossKillPoints) {
  const Fixture fx(kRoundPrinters, kAttackedPrinter);
  const auto prints = round_prints(fx);
  const auto copy_into = [](const std::string& from, const TempDir& to) {
    std::filesystem::copy(from, to.str(),
                          std::filesystem::copy_options::recursive);
  };

  // The uninterrupted run.  Each kill image is a copy of the checkpoint
  // and baseline directories right after a flush(): the disk image a
  // SIGKILL at that instant leaves.
  TempDir ckpt("rounds_ckpt"), base("rounds_base");
  TempDir mid_ckpt("mid_ckpt"), mid_base("mid_base");
  TempDir r2_ckpt("r2_ckpt"), r2_base("r2_base"), r3_ckpt("r3_ckpt");
  std::map<std::size_t, PrintVerdict> clean;
  std::vector<BaselineRow> clean_rows;
  {
    ShardedFleet fleet(rounds_options(ckpt.str(), base.str()));
    clean = drive_rounds(fleet, fx, prints, [&](std::size_t r, RoundPoint p) {
      if (r == 1 && p == RoundPoint::kMidStream) {
        copy_into(ckpt.str(), mid_ckpt);
        copy_into(base.str(), mid_base);
      } else if (r == 1 && p == RoundPoint::kEvicted) {
        copy_into(ckpt.str(), r2_ckpt);
        copy_into(base.str(), r2_base);
      } else if (r == 2 && p == RoundPoint::kEvicted) {
        copy_into(ckpt.str(), r3_ckpt);
      }
    });
    clean_rows = baseline_rows(fleet);
  }

  // Not vacuous: the attacked printer alarms every round and, like any
  // alarmed print, is frozen out of the baselines, while the benign prints
  // fold in and move at least one baseline off its factory anchor.
  ASSERT_EQ(clean.size(), kRounds * kRoundPrinters);
  std::size_t alarmed = 0;
  for (const auto& [id, v] : clean) {
    if (id % kRoundPrinters == kAttackedPrinter) {
      EXPECT_TRUE(v.verdict.intrusion) << v.verdict.name;
    }
    alarmed += v.verdict.intrusion ? 1 : 0;
  }
  ASSERT_FALSE(clean_rows.empty());
  std::uint64_t folded = 0, frozen = 0;
  bool adapted = false;
  for (const BaselineRow& row : clean_rows) {
    folded += row.prints;
    frozen += row.frozen;
    adapted = adapted || row.c != row.anchor_c || row.h != row.anchor_h ||
              row.v != row.anchor_v;
  }
  EXPECT_EQ(frozen, alarmed * fx.channels.size());
  EXPECT_EQ(folded, (clean.size() - alarmed) * fx.channels.size());
  EXPECT_TRUE(adapted) << "no baseline moved off its anchor";

  struct Image {
    const char* what;
    const TempDir& ckpt;
    const TempDir& base;
    std::size_t first_replayed;  // prints evicted before the kill
  };
  const Image images[] = {
      {"mid-stream in round 2", mid_ckpt, mid_base, 1 * kRoundPrinters},
      {"after round 2's evictions", r2_ckpt, r2_base, 2 * kRoundPrinters},
      // A crash between round 3's state write and its baseline export
      // leaves round 2's .nbrg next to round 3's checkpoint; restore must
      // follow the checkpoint.
      {"round 3 state with round 2's export", r3_ckpt, r2_base,
       3 * kRoundPrinters},
  };
  for (const Image& image : images) {
    SCOPED_TRACE(image.what);
    TempDir ck("resume_ckpt"), bd("resume_base");
    copy_into(image.ckpt.str(), ck);
    copy_into(image.base.str(), bd);
    const std::unique_ptr<ShardedFleet> fleet =
        ShardedFleet::restore(ck.str(), rounds_options(ck.str(), bd.str()));
    const std::map<std::size_t, PrintVerdict> resumed =
        drive_rounds(*fleet, fx, prints);
    ASSERT_EQ(resumed.size(), clean.size() - image.first_replayed);
    EXPECT_EQ(resumed.begin()->first, image.first_replayed);
    for (const auto& [id, v] : resumed) {
      EXPECT_EQ(v, clean.at(id)) << "print " << id;
    }
    EXPECT_EQ(baseline_rows(*fleet), clean_rows);
  }
}
