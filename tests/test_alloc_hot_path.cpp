// Verifies the zero-allocation claim for the streaming DWM hot path: once
// a synchronizer is warmed up (FFT plans built, workspaces at steady-state
// size, results reserved), pushing one hop of frames — which scores one
// full TDEB window — must not touch the heap.  One layer up, a
// MonitorEngine sizes everything at admission, so no feed or poll
// allocates from the first window on: monitors and the fused verdict
// refresh.  A feed larger than that reservation grows the synchronizer
// ring once, never again for chunks of its size.  A session refresh costs
// the same at any print length, and a warm ShardedFleet round (feed, poll,
// publish) allocates nothing on its worker thread, nor does encoding a
// reply into a warm buffer.  The offline spectrogram likewise allocates
// only its output and per-call scratch, never per column.
//
// The check replaces the global allocation functions with counting
// versions; counting is enabled only around the measured pushes, so the
// test harness's own allocations don't interfere.  A thread can opt out
// (t_uncounted), so a fleet round counts only what its worker allocates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/dwm.hpp"
#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "dsp/stft.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_protocol.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
thread_local bool t_uncounted = false;

void count_allocation() {
  if (g_counting.load(std::memory_order_relaxed) && !t_uncounted) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count_allocation();
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

Signal smoothed_noise(std::size_t frames, std::size_t channels,
                      std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, channels, 100.0);
  std::vector<double> lp(channels, 0.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      lp[c] += 0.35 * (rng.normal() - lp[c]);
      s(n, c) = lp[c];
    }
  }
  return s;
}

TEST(AllocHotPath, WarmDwmWindowPushIsAllocationFree) {
  DwmParams p;
  p.n_win = 256;
  p.n_hop = 128;
  p.n_ext = 64;
  p.n_sigma = 32.0;
  // Every channel count runs the per-channel correlation on one shared
  // scratch set, so 1, 2 (an AUD pair) and 6 (a UM3 ACC+AUD roster)
  // channels must all be allocation-free.
  for (const std::size_t channels :
       {std::size_t{1}, std::size_t{2}, std::size_t{6}}) {
    const Signal reference = smoothed_noise(8000, channels, 1);
    const Signal observed = smoothed_noise(4000, channels, 2);

    DwmSynchronizer sync(reference, p);
    sync.reserve_windows(64);
    // Warm-up: several windows so the first-window edge effects (clamped
    // extended reference, cold FFT plans, workspace growth) are behind us.
    std::size_t pos = 0;
    while (sync.windows() < 4) {
      sync.push(SignalView(observed).slice(pos, pos + p.n_hop));
      pos += p.n_hop;
    }

    // Steady state: each hop-sized push scores exactly one TDEB window and
    // must perform zero heap allocations.
    for (int round = 0; round < 8; ++round) {
      const SignalView chunk = SignalView(observed).slice(pos, pos + p.n_hop);
      pos += p.n_hop;
      g_allocations.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
      const std::size_t done = sync.push(chunk);
      g_counting.store(false, std::memory_order_relaxed);
      EXPECT_EQ(done, 1u) << "channels " << channels << " round " << round;
      EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
          << "channels " << channels << " round " << round;
    }
  }
}

TEST(AllocHotPath, WarmRealtimeMonitorWindowPushIsAllocationFree) {
  // The full streaming stack — synchronizer + DetectionCore (distance
  // workspace, incremental min filters, feature arrays) — must also be
  // allocation-free per window once warmed and reserved.
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 256;
  cfg.dwm.n_hop = 128;
  cfg.dwm.n_ext = 64;
  cfg.dwm.n_sigma = 32.0;
  const Signal reference = smoothed_noise(8000, 2, 3);
  const Signal observed = smoothed_noise(4000, 2, 4);

  Thresholds t;
  t.c_c = 1e9;  // keep the latch quiet; latching writes no heap anyway
  t.h_c = 1e9;
  t.v_c = 1e9;
  RealtimeMonitor mon(reference, cfg, t);
  mon.reserve_windows(64);
  std::size_t pos = 0;
  while (mon.windows() < 4) {
    mon.push(SignalView(observed).slice(pos, pos + cfg.dwm.n_hop));
    pos += cfg.dwm.n_hop;
  }

  for (int round = 0; round < 8; ++round) {
    const SignalView chunk =
        SignalView(observed).slice(pos, pos + cfg.dwm.n_hop);
    pos += cfg.dwm.n_hop;
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const std::size_t done = mon.push(chunk);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(done, 1u) << "round " << round;
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
        << "round " << round;
  }
}

/// The engine tests' monitor shape: n_win 256, hop 128.
NsyncConfig engine_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 256;
  cfg.dwm.n_hop = 128;
  cfg.dwm.n_ext = 64;
  cfg.dwm.n_sigma = 32.0;
  return cfg;
}

/// One multichannel and one single-channel stream, so both the strided
/// channel copy and the contiguous single-channel view run in the
/// measured windows.
const std::vector<std::string> kNames{"ACC", "AUD"};
const std::vector<std::size_t> kWidths{2, 1};

/// A two-channel session over 8000-frame references whose thresholds
/// never latch (a latched session skips the fusion refresh).
engine::SessionSpec quiet_session(std::shared_ptr<const FusionPolicy> policy) {
  Thresholds t;
  t.c_c = 1e9;
  t.h_c = 1e9;
  t.v_c = 1e9;
  engine::SessionSpec spec;
  spec.name = "printer";
  spec.policy = std::move(policy);
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    spec.channels.push_back({kNames[c],
                             smoothed_noise(8000, kWidths[c], 5 + c),
                             engine_config(), t});
  }
  return spec;
}

/// Admits a two-channel session under `policy`, then checks that feeding
/// one hop per channel plus poll_session() allocates nothing, from the
/// first window on.
void expect_engine_drains_are_allocation_free(
    std::shared_ptr<const FusionPolicy> policy) {
  const NsyncConfig cfg = engine_config();
  std::vector<Signal> observed;
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    observed.push_back(smoothed_noise(4000, kWidths[c], 7 + c));
  }
  engine::MonitorEngine eng;
  const std::size_t id = eng.add_session(quiet_session(std::move(policy)));

  std::size_t windows = 0;
  for (std::size_t round = 0; round < 12; ++round) {
    const std::size_t pos = round * cfg.dwm.n_hop;
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    std::size_t done = 0;
    for (std::size_t c = 0; c < kNames.size(); ++c) {
      done += eng.feed(id, kNames[c],
                       SignalView(observed[c]).slice(pos, pos + cfg.dwm.n_hop));
    }
    done += eng.poll_session(id);
    g_counting.store(false, std::memory_order_relaxed);
    windows += done;
    // One window per channel per hop once the first window is complete.
    if (round >= 1) {
      EXPECT_EQ(done, kNames.size()) << "round " << round;
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
        << "round " << round;
  }
  EXPECT_EQ(windows, 11 * kNames.size());
  EXPECT_FALSE(eng.snapshot(id).intrusion);
}

TEST(AllocHotPath, EngineDrainUnderVotingIsAllocationFree) {
  expect_engine_drains_are_allocation_free(
      std::make_shared<const VotingPolicy>(FusionRule::kMajority));
}

TEST(AllocHotPath, EngineDrainUnderWeightedIsAllocationFree) {
  expect_engine_drains_are_allocation_free(
      std::make_shared<const WeightedPolicy>(
          WeightedPolicyConfig{},
          std::vector<std::pair<std::string, double>>{{"ACC", 0.6},
                                                      {"AUD", 0.4}}));
}

TEST(AllocHotPath, DirectFeedsAllocateNothingAfterTheFirstRound) {
  // feed() pushes each chunk straight into the synchronizer ring.  Every
  // round feeds one chunk per channel and polls; after the first round no
  // chunk size — single frames, odd mid-size chunks, chunks past the
  // ring's up-front room of 2 (n_win + n_hop) frames — allocates.
  const NsyncConfig cfg = engine_config();
  const std::size_t past_reservation = 4 * (cfg.dwm.n_win + cfg.dwm.n_hop);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{113}, std::size_t{1200},
        past_reservation}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    std::vector<Signal> observed;
    for (std::size_t c = 0; c < kNames.size(); ++c) {
      observed.push_back(smoothed_noise(7000, kWidths[c], 7 + c));
    }
    engine::MonitorEngine eng;
    const std::size_t id = eng.add_session(quiet_session(
        std::make_shared<const VotingPolicy>(FusionRule::kMajority)));
    std::size_t windows = 0;
    std::size_t allocations = 0;
    for (std::size_t pos = 0; pos < 7000; pos += chunk) {
      const std::size_t hi = std::min<std::size_t>(pos + chunk, 7000);
      g_allocations.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
      std::size_t done = 0;
      for (std::size_t c = 0; c < kNames.size(); ++c) {
        done += eng.feed(id, kNames[c], SignalView(observed[c]).slice(pos, hi));
      }
      done += eng.poll_inline();
      g_counting.store(false, std::memory_order_relaxed);
      if (pos > 0) {
        allocations += g_allocations.load(std::memory_order_relaxed);
        windows += done;
      }
    }
    EXPECT_GT(windows, 0u);
    EXPECT_EQ(allocations, 0u) << "over " << windows << " windows";
    EXPECT_FALSE(eng.snapshot(id).intrusion);
  }
}

/// Heap allocations of one warm session refresh (poll + snapshot_into)
/// after `windows` windows per channel of a two-channel session, with
/// windows narrow enough that thousands stream in milliseconds.
std::size_t refresh_allocations(std::size_t windows) {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 32;
  cfg.dwm.n_hop = 16;
  cfg.dwm.n_ext = 8;
  cfg.dwm.n_sigma = 8.0;
  const std::size_t frames = (windows + 1) * cfg.dwm.n_hop + cfg.dwm.n_win;
  engine::SessionSpec spec = quiet_session(
      std::make_shared<const WeightedPolicy>(
          WeightedPolicyConfig{},
          std::vector<std::pair<std::string, double>>{{"ACC", 0.6},
                                                      {"AUD", 0.4}}));
  for (std::size_t c = 0; c < spec.channels.size(); ++c) {
    spec.channels[c].config = cfg;
    spec.channels[c].reference =
        smoothed_noise(frames + 8 * cfg.dwm.n_hop, kWidths[c], 5 + c);
  }
  engine::MonitorEngine eng;
  const std::size_t id = eng.add_session(std::move(spec));
  std::vector<Signal> observed;
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    observed.push_back(smoothed_noise(frames, kWidths[c], 7 + c));
  }
  const std::size_t head = frames - cfg.dwm.n_hop;
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    eng.feed(id, kNames[c], SignalView(observed[c]).slice(0, head));
  }
  engine::SessionSnapshot snap;
  eng.poll_session(id);
  eng.snapshot_into(id, snap);
  const std::size_t before = snap.windows;
  // One more hop per channel, so the measured refresh has a window to
  // score.
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    eng.feed(id, kNames[c], SignalView(observed[c]).slice(head, frames));
  }
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  eng.poll_session(id);
  eng.snapshot_into(id, snap);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_GE(before, windows);
  EXPECT_GT(snap.windows, before);
  EXPECT_FALSE(snap.intrusion);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocHotPath, SessionRefreshAllocatesTheSameAtTwentyTimesTheLength) {
  // The refresh scores each channel from its running feature maxima, so
  // a print 20x as long costs it no more: no allocation at either length.
  const std::size_t short_allocs = refresh_allocations(200);
  const std::size_t long_allocs = refresh_allocations(4000);
  EXPECT_EQ(short_allocs, 0u);
  EXPECT_EQ(long_allocs, short_allocs);
}

TEST(AllocHotPath, WarmShardRoundAllocatesNothingOnTheWorker) {
  // One FEED per round, then flush(): the worker pops it, feeds the
  // engine, polls and publishes.  After the session's first publishes
  // the view hands back a snapshot of the same shape at every swap, so
  // no round allocates.  The feeding thread's frame copies are the
  // caller's, not the round's, and go uncounted.
  const NsyncConfig cfg = engine_config();
  std::vector<Signal> observed;
  for (std::size_t c = 0; c < kNames.size(); ++c) {
    observed.push_back(smoothed_noise(4000, kWidths[c], 7 + c));
  }
  engine::ShardedFleet fleet;
  const std::size_t id = fleet.add_session(quiet_session(
      std::make_shared<const VotingPolicy>(FusionRule::kMajority)));
  constexpr std::size_t kWarmRounds = 4;
  std::size_t allocations = 0;
  t_uncounted = true;
  for (std::size_t round = 0; round < 24; ++round) {
    const std::size_t c = round % kNames.size();
    const std::size_t pos = (round / kNames.size()) * cfg.dwm.n_hop;
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(round >= kWarmRounds, std::memory_order_relaxed);
    const engine::FeedResult r = fleet.feed(
        id, kNames[c], SignalView(observed[c]).slice(pos, pos + cfg.dwm.n_hop));
    fleet.flush();
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(r.status, engine::FeedStatus::kOk) << "round " << round;
    allocations += g_allocations.load(std::memory_order_relaxed);
  }
  t_uncounted = false;
  EXPECT_EQ(allocations, 0u);
  const engine::SessionSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.windows, 11u);
  EXPECT_EQ(fleet.stats().windows, 11u * kNames.size());
  EXPECT_FALSE(snap.intrusion);
}

TEST(AllocHotPath, EncodeIntoAWarmBufferAllocatesNothing) {
  // The daemon encodes every reply into one buffer per connection; a
  // FEED_OK into a buffer that already held one needs no new storage, and
  // its bytes are encode()'s.
  const engine::wire::Message reply = engine::wire::FeedOk{4096, 0, 17};
  std::vector<std::uint8_t> buffer;
  engine::wire::encode_into(reply, buffer);
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine::wire::encode_into(reply, buffer);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(buffer, engine::wire::encode(reply));
}

/// Heap allocations made by one spectrogram() call.
std::size_t spectrogram_allocations(const Signal& s,
                                    const dsp::StftConfig& cfg) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const Signal spec = dsp::spectrogram(s, cfg);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_GT(spec.frames(), 0u);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocHotPath, SpectrogramAllocatesNothingPerColumn) {
  // A 1000-column spectrogram must make exactly as many allocations as a
  // 100-column one of the same geometry: the output signal and the
  // column routine's scratch, nothing per column or per channel.
  struct Geometry {
    double fs;
    double delta_f;
    double delta_t;
    std::size_t channels;
  };
  const Geometry geometries[] = {
      {400.0, 20.0, 1.0 / 80.0, 1},     // n_win 20, hop 5
      {4000.0, 120.0, 1.0 / 240.0, 2},  // n_win 33, hop 17
      {1024.0, 16.0, 1.0 / 64.0, 3},    // n_win 64, hop 16
  };
  for (const Geometry& g : geometries) {
    dsp::StftConfig cfg;
    cfg.delta_f = g.delta_f;
    cfg.delta_t = g.delta_t;
    const std::size_t n_win = dsp::stft_window_samples(cfg, g.fs);
    const std::size_t n_hop = dsp::stft_hop_samples(cfg, g.fs);
    auto input = [&](std::size_t columns, std::uint64_t seed) {
      Signal s = smoothed_noise((columns - 1) * n_hop + n_win, g.channels,
                                seed);
      s.set_sample_rate(g.fs);
      return s;
    };
    const Signal short_input = input(100, 11);
    const Signal long_input = input(1000, 12);
    (void)dsp::spectrogram(short_input, cfg);  // build the cached plans
    const std::size_t short_allocs =
        spectrogram_allocations(short_input, cfg);
    const std::size_t long_allocs = spectrogram_allocations(long_input, cfg);
    EXPECT_EQ(long_allocs, short_allocs)
        << "n_win " << n_win << " channels " << g.channels;
  }
}

}  // namespace
}  // namespace nsync::core
