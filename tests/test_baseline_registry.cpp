// Tests for the per-device baseline registry: resolve/fold semantics, the
// anti-poisoning state machine (dwell, bounded step, one-sided drift
// envelope, eligibility freezing), the NBRG codec (round-trip, typed
// rejection of truncated/corrupt/version-bumped/policy-mismatched
// payloads), and the engine-level guarantees — an attacked print never
// moves the baseline, benign feature maxima are chunking-invariant, and
// adapted thresholds survive a serialize/restore cycle bitwise.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/discriminator.hpp"
#include "core/nsync.hpp"
#include "engine/baseline_registry.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace nsync {
namespace {

using nsync::core::FeatureMaxima;
using nsync::core::NsyncConfig;
using nsync::core::NsyncIds;
using nsync::core::RealtimeMonitor;
using nsync::core::SyncMethod;
using nsync::core::Thresholds;
using nsync::engine::AdaptationPolicy;
using nsync::engine::BaselineRegistry;
using nsync::engine::DeviceBaseline;
using nsync::engine::MonitorEngine;
using nsync::engine::MonitorEngineOptions;
using nsync::engine::SessionSpec;
using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::Rng;
using nsync::signal::Signal;

FeatureMaxima maxima(double c, double h, double v) {
  FeatureMaxima m;
  m.c_max = c;
  m.h_max = h;
  m.v_max = v;
  return m;
}

Thresholds thresholds(double c, double h, double v) {
  Thresholds t;
  t.c_c = c;
  t.h_c = h;
  t.v_c = v;
  return t;
}

/// Policy that reacts on the first fold (no dwell) so single folds are
/// observable; tests that exercise the dwell set min_prints themselves.
AdaptationPolicy eager_policy() {
  AdaptationPolicy p;
  p.history = 4;
  p.min_prints = 1;
  p.max_step = 0.10;
  p.max_drift = 0.5;
  p.r = 0.0;
  return p;
}

// ---------------------------------------------------------------------------
// Resolve / fold semantics

TEST(BaselineRegistry, ResolveSeedsAnchorAndServesCurrent) {
  BaselineRegistry reg(eager_policy());
  const Thresholds trained = thresholds(1.0, 2.0, 3.0);
  const Thresholds first = reg.resolve("mk3", "acc", trained);
  EXPECT_EQ(first.c_c, 1.0);
  EXPECT_EQ(first.h_c, 2.0);
  EXPECT_EQ(first.v_c, 3.0);

  // Later resolves ignore the caller's trained values: the registry owns
  // the calibration after first contact.
  const Thresholds second = reg.resolve("mk3", "acc", thresholds(9, 9, 9));
  EXPECT_EQ(second.c_c, 1.0);
  EXPECT_EQ(second.h_c, 2.0);
  EXPECT_EQ(second.v_c, 3.0);

  const DeviceBaseline b = reg.baseline("mk3", "acc");
  EXPECT_EQ(b.anchor.v_c, 3.0);
  EXPECT_EQ(b.current.v_c, 3.0);
  EXPECT_EQ(b.prints, 0u);
  EXPECT_EQ(b.frozen, 0u);
}

TEST(BaselineRegistry, DwellBlocksEarlyMovement) {
  AdaptationPolicy p = eager_policy();
  p.min_prints = 3;
  BaselineRegistry reg(p);
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  EXPECT_TRUE(reg.fold("mk3", "acc", maxima(2, 2, 2), true));
  EXPECT_TRUE(reg.fold("mk3", "acc", maxima(2, 2, 2), true));
  // Two eligible folds < min_prints: accepted into the ring, no movement.
  EXPECT_EQ(reg.baseline("mk3", "acc").current.v_c, 1.0);
  EXPECT_TRUE(reg.fold("mk3", "acc", maxima(2, 2, 2), true));
  EXPECT_GT(reg.baseline("mk3", "acc").current.v_c, 1.0);
}

TEST(BaselineRegistry, BoundedStepTowardRisingTarget) {
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  double prev = 1.0;
  for (int i = 0; i < 3; ++i) {
    reg.fold("mk3", "acc", maxima(1.4, 1.4, 1.4), true);
    const double cur = reg.baseline("mk3", "acc").current.v_c;
    EXPECT_GT(cur, prev);
    // One fold moves at most max_step relative to the larger of current
    // and anchor.
    EXPECT_LE(cur, prev + 0.10 * std::max(prev, 1.0) + 1e-12);
    prev = cur;
  }
}

TEST(BaselineRegistry, NeverAdaptsBelowAnchor) {
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  // A run of unusually quiet prints re-learns a target far below the
  // factory calibration; the one-sided envelope must refuse to tighten.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(reg.fold("mk3", "acc", maxima(0.2, 0.2, 0.2), true));
  }
  const DeviceBaseline b = reg.baseline("mk3", "acc");
  EXPECT_EQ(b.current.c_c, 1.0);
  EXPECT_EQ(b.current.h_c, 1.0);
  EXPECT_EQ(b.current.v_c, 1.0);
  EXPECT_EQ(b.prints, 10u);
}

TEST(BaselineRegistry, SlowDriftAttackCannotEscapeEnvelope) {
  // Adversarial scenario: an attacker escalates "benign looking" prints a
  // few percent at a time, hoping adaptation follows until real attacks
  // sit below the threshold.  The envelope caps the excursion at
  // anchor*(1+max_drift), so a feature past the envelope still alarms no
  // matter how patient the attacker is.
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  double level = 1.0;
  for (int i = 0; i < 60; ++i) {
    level *= 1.05;
    reg.fold("mk3", "acc", maxima(level, level, level), true);
  }
  const DeviceBaseline b = reg.baseline("mk3", "acc");
  EXPECT_LE(b.current.v_c, 1.5);
  EXPECT_GE(b.current.v_c, 1.5 - 1e-9);  // pinned at the envelope edge
  // The attacker spent 60 prints and the threshold still alarms on any
  // feature beyond the bounded envelope (strict > comparison).
  EXPECT_GT(1.6, b.current.v_c);
  // The anchor never moved.
  EXPECT_EQ(b.anchor.v_c, 1.0);
}

TEST(BaselineRegistry, IneligibleFoldsFreezeStatistics) {
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  EXPECT_FALSE(reg.fold("mk3", "acc", maxima(5, 5, 5), false));
  EXPECT_FALSE(reg.fold("mk3", "acc", maxima(5, 5, 5), false));
  const DeviceBaseline b = reg.baseline("mk3", "acc");
  EXPECT_EQ(b.frozen, 2u);
  EXPECT_EQ(b.prints, 0u);
  EXPECT_TRUE(b.recent.empty());
  EXPECT_EQ(b.current.v_c, 1.0);
}

TEST(BaselineRegistry, NonFiniteMaximaAreFrozenNotFolded) {
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(1, 1, 1));
  FeatureMaxima bad = maxima(1, 1, 1);
  bad.v_max = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(reg.fold("mk3", "acc", bad, true));
  EXPECT_EQ(reg.baseline("mk3", "acc").frozen, 1u);
}

TEST(BaselineRegistry, ZeroAnchorComponentStaysPinned) {
  BaselineRegistry reg(eager_policy());
  reg.resolve("mk3", "acc", thresholds(0.0, 1.0, 1.0));
  for (int i = 0; i < 5; ++i) {
    reg.fold("mk3", "acc", maxima(0.7, 1.2, 1.2), true);
  }
  const DeviceBaseline b = reg.baseline("mk3", "acc");
  EXPECT_EQ(b.current.c_c, 0.0);  // empty envelope: pinned at 0
  EXPECT_GT(b.current.h_c, 1.0);
}

TEST(BaselineRegistry, FoldUnknownKeyThrows) {
  BaselineRegistry reg(eager_policy());
  EXPECT_THROW(reg.fold("never", "seen", maxima(1, 1, 1), true),
               std::out_of_range);
  EXPECT_THROW(reg.baseline("never", "seen"), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Codec

/// A registry with two keys and some folded history.
BaselineRegistry populated_registry(const AdaptationPolicy& p) {
  BaselineRegistry reg(p);
  reg.resolve("mk3", "acc", thresholds(1.0, 2.0, 3.0));
  reg.resolve("mk4", "aud", thresholds(0.5, 0.25, 0.125));
  reg.fold("mk3", "acc", maxima(1.1, 2.1, 3.1), true);
  reg.fold("mk3", "acc", maxima(1.2, 2.2, 3.2), true);
  reg.fold("mk3", "acc", maxima(5, 5, 5), false);
  reg.fold("mk4", "aud", maxima(0.6, 0.3, 0.2), true);
  return reg;
}

void expect_same(const BaselineRegistry& a, const BaselineRegistry& b) {
  ASSERT_EQ(a.keys(), b.keys());
  for (const auto& [model, profile] : a.keys()) {
    const DeviceBaseline x = a.baseline(model, profile);
    const DeviceBaseline y = b.baseline(model, profile);
    EXPECT_EQ(x.anchor.c_c, y.anchor.c_c);
    EXPECT_EQ(x.anchor.h_c, y.anchor.h_c);
    EXPECT_EQ(x.anchor.v_c, y.anchor.v_c);
    EXPECT_EQ(x.current.c_c, y.current.c_c);
    EXPECT_EQ(x.current.h_c, y.current.h_c);
    EXPECT_EQ(x.current.v_c, y.current.v_c);
    EXPECT_EQ(x.prints, y.prints);
    EXPECT_EQ(x.frozen, y.frozen);
    ASSERT_EQ(x.recent.size(), y.recent.size());
    for (std::size_t i = 0; i < x.recent.size(); ++i) {
      EXPECT_EQ(x.recent[i].c_max, y.recent[i].c_max);
      EXPECT_EQ(x.recent[i].h_max, y.recent[i].h_max);
      EXPECT_EQ(x.recent[i].v_max, y.recent[i].v_max);
    }
  }
}

TEST(BaselineRegistryCodec, StateRoundTripsThroughCodec) {
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  ByteWriter w;
  reg.save_state(w);

  BaselineRegistry restored(p);
  ByteReader r(w.data());
  restored.restore_state(r);
  expect_same(reg, restored);
}

TEST(BaselineRegistryCodec, FileRoundTrips) {
  const std::string path = ::testing::TempDir() + "registry_roundtrip.nbrg";
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  reg.save(path);
  const BaselineRegistry loaded = BaselineRegistry::load(path, p);
  expect_same(reg, loaded);
  std::filesystem::remove(path);
}

TEST(BaselineRegistryCodec, TruncatedPayloadRejectedTyped) {
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  ByteWriter w;
  reg.save_state(w);
  const std::span<const std::uint8_t> full = w.data();
  for (const std::size_t keep : {full.size() / 4, full.size() / 2,
                                 full.size() - 3}) {
    BaselineRegistry target(p);
    ByteReader r(full.subspan(0, keep));
    EXPECT_THROW(target.restore_state(r), CheckpointError) << keep;
  }
}

TEST(BaselineRegistryCodec, CorruptCountRejectedAndTargetUnchanged) {
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  ByteWriter w;
  reg.save_state(w);
  std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
  // Section header is u32 id | u64 length; the payload starts with a u32
  // format version then the 40-byte policy fingerprint, so the baseline
  // count sits at offset 12 + 4 + 40.  An absurd count must be rejected
  // before any allocation.
  bytes[12 + 4 + 40 + 7] = 0xFF;
  BaselineRegistry target = populated_registry(p);
  ByteReader r(bytes);
  EXPECT_THROW(target.restore_state(r), CheckpointError);
  // The failed restore left the target exactly as it was.
  expect_same(target, populated_registry(p));
}

TEST(BaselineRegistryCodec, VersionBumpRejected) {
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  ByteWriter w;
  reg.save_state(w);
  std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
  bytes[12] += 1;  // format version u32 right after the section header
  BaselineRegistry target(p);
  ByteReader r(bytes);
  try {
    target.restore_state(r);
    FAIL() << "version bump must be rejected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kBadVersion);
  }
}

TEST(BaselineRegistryCodec, PolicyMismatchRejected) {
  const AdaptationPolicy p = eager_policy();
  const BaselineRegistry reg = populated_registry(p);
  ByteWriter w;
  reg.save_state(w);

  AdaptationPolicy other = p;
  other.max_drift = 0.25;
  BaselineRegistry target(other);
  ByteReader r(w.data());
  try {
    target.restore_state(r);
    FAIL() << "policy mismatch must be rejected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kMismatch);
  }
}

TEST(BaselineRegistryCodec, LayoutOneFileWrittenByHandStillLoads) {
  // An .nbrg exported before fleet checkpoints moved their specs into
  // spec files: NCKP container v2 around an NBRG format-1 section, spelled
  // out field by field so neither layout can drift silently.
  const AdaptationPolicy p = eager_policy();
  ByteWriter section;
  section.pod<std::uint32_t>(0x4752424E);  // "NBRG"
  ByteWriter body;
  body.pod<std::uint32_t>(1);  // format version
  body.pod<std::uint64_t>(p.history);
  body.pod<std::uint64_t>(p.min_prints);
  body.pod<double>(p.max_step);
  body.pod<double>(p.max_drift);
  body.pod<double>(p.r);
  body.pod<std::uint64_t>(1);  // one baseline
  body.str("mk3");
  body.str("acc");
  for (const double v : {1.0, 2.0, 3.0, 1.25, 2.5, 3.75}) body.pod<double>(v);
  body.pod<std::uint64_t>(2);  // prints
  body.pod<std::uint64_t>(1);  // frozen
  body.pod<std::uint64_t>(1);  // recent ring
  for (const double v : {1.1, 2.1, 3.1}) body.pod<double>(v);
  section.pod<std::uint64_t>(body.data().size());
  section.bytes(body.data().data(), body.data().size());

  ByteWriter file;
  file.bytes("NCKP", 4);
  file.pod<std::uint32_t>(2);
  file.pod<std::uint64_t>(section.data().size());
  file.bytes(section.data().data(), section.data().size());
  file.pod<std::uint32_t>(
      nsync::signal::crc32(section.data().data(), section.data().size()));
  const std::string path = ::testing::TempDir() + "registry_layout1.nbrg";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data().data()),
              static_cast<std::streamsize>(file.data().size()));
  }

  const BaselineRegistry loaded = BaselineRegistry::load(path, p);
  ASSERT_EQ(loaded.keys(),
            (std::vector<std::pair<std::string, std::string>>{{"mk3", "acc"}}));
  const DeviceBaseline b = loaded.baseline("mk3", "acc");
  EXPECT_EQ(b.anchor.h_c, 2.0);
  EXPECT_EQ(b.current.v_c, 3.75);
  EXPECT_EQ(b.prints, 2u);
  EXPECT_EQ(b.frozen, 1u);
  ASSERT_EQ(b.recent.size(), 1u);
  EXPECT_EQ(b.recent[0].c_max, 1.1);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Engine-level guarantees

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 1, 100.0);
  double lp = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    s(n, 0) = lp;
  }
  return s;
}

Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = b;
  for (std::size_t n = 0; n < a.frames(); ++n) {
    a(n, 0) += rng.normal(0.0, 0.05);
  }
  return a;
}

Signal attack_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 77);
  double lp = 0.0;
  for (std::size_t n = a.frames() / 3; n < a.frames(); ++n) {
    lp += 0.35 * (rng.normal() - lp);
    a(n, 0) = lp;
  }
  return a;
}

NsyncConfig engine_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 32;
  cfg.dwm.n_hop = 16;
  cfg.dwm.n_ext = 12;
  cfg.dwm.n_sigma = 6.0;
  cfg.metric = core::DistanceMetric::kEuclidean;
  // Wide margin: these tests exercise registry mechanics, not calibration
  // statistics, so benign prints must clear the factory envelope reliably.
  cfg.r = 2.0;
  return cfg;
}

struct EngineRig {
  Signal reference;
  NsyncConfig cfg;
  Thresholds factory;

  EngineRig() : reference(make_reference(600, 11)), cfg(engine_config()) {
    NsyncIds ids(reference, cfg);
    std::vector<Signal> train;
    for (std::uint64_t s = 0; s < 8; ++s) {
      train.push_back(benign_observation(reference, 100 + s));
    }
    ids.fit(train);
    factory = ids.thresholds();
  }

  SessionSpec spec(const std::string& name) const {
    SessionSpec sp;
    sp.name = name;
    sp.model = "mk3";
    sp.channels.push_back({"acc", reference, cfg, factory});
    return sp;
  }

  /// Admits, streams, snapshots and evicts one print; returns intrusion.
  static bool run_print(MonitorEngine& eng, const SessionSpec& sp,
                        const Signal& obs) {
    const std::size_t id = eng.add_session(sp);
    eng.feed(id, "acc", obs.view());
    eng.poll_session(id);
    const bool intrusion = eng.snapshot(id).intrusion;
    eng.evict_session(id);
    return intrusion;
  }
};

TEST(BaselineRegistryEngine, AttackedPrintNeverPoisonsBaseline) {
  EngineRig rig;
  MonitorEngineOptions opts;
  opts.baseline.adaptive = true;
  opts.baseline.policy = eager_policy();
  MonitorEngine eng(opts);

  EXPECT_FALSE(EngineRig::run_print(eng, rig.spec("p0"),
                                    benign_observation(rig.reference, 500)));
  const DeviceBaseline after_benign =
      eng.baseline_registry()->baseline("mk3", "acc");
  EXPECT_EQ(after_benign.prints, 1u);
  EXPECT_EQ(after_benign.frozen, 0u);

  EXPECT_TRUE(EngineRig::run_print(eng, rig.spec("p1"),
                                   attack_observation(rig.reference, 501)));
  const DeviceBaseline after_attack =
      eng.baseline_registry()->baseline("mk3", "acc");
  // The attacked print froze: statistics and thresholds are untouched.
  EXPECT_EQ(after_attack.prints, 1u);
  EXPECT_EQ(after_attack.frozen, 1u);
  EXPECT_EQ(after_attack.current.c_c, after_benign.current.c_c);
  EXPECT_EQ(after_attack.current.h_c, after_benign.current.h_c);
  EXPECT_EQ(after_attack.current.v_c, after_benign.current.v_c);
  // And detection kept working on the print after the attack.
  EXPECT_FALSE(EngineRig::run_print(eng, rig.spec("p2"),
                                    benign_observation(rig.reference, 502)));
}

TEST(BaselineRegistryEngine, BenignMaximaChunkInvariant) {
  EngineRig rig;
  const Signal obs = benign_observation(rig.reference, 600);

  RealtimeMonitor whole(rig.reference, rig.cfg, rig.factory);
  whole.push(obs.view());

  RealtimeMonitor chunked(rig.reference, rig.cfg, rig.factory);
  for (std::size_t n = 0; n < obs.frames(); n += 7) {
    const std::size_t end = std::min(n + 7, obs.frames());
    chunked.push(obs.view().slice(n, end));
  }

  EXPECT_EQ(whole.benign_windows(), chunked.benign_windows());
  EXPECT_EQ(whole.benign_feature_maxima().c_max,
            chunked.benign_feature_maxima().c_max);
  EXPECT_EQ(whole.benign_feature_maxima().h_max,
            chunked.benign_feature_maxima().h_max);
  EXPECT_EQ(whole.benign_feature_maxima().v_max,
            chunked.benign_feature_maxima().v_max);
}

TEST(BaselineRegistryEngine, AdaptedThresholdsSurviveSerializeRestore) {
  EngineRig rig;
  MonitorEngineOptions opts;
  opts.baseline.adaptive = true;
  opts.baseline.policy = eager_policy();
  MonitorEngine eng(opts);
  for (std::uint64_t p = 0; p < 3; ++p) {
    EngineRig::run_print(eng, rig.spec("p" + std::to_string(p)),
                         benign_observation(rig.reference, 700 + p));
  }
  const DeviceBaseline before =
      eng.baseline_registry()->baseline("mk3", "acc");

  const std::vector<std::uint8_t> payload = eng.serialize();
  MonitorEngine restored = MonitorEngine::restore_from_bytes(payload, opts);
  ASSERT_NE(restored.baseline_registry(), nullptr);
  const DeviceBaseline after =
      restored.baseline_registry()->baseline("mk3", "acc");
  EXPECT_EQ(before.current.c_c, after.current.c_c);
  EXPECT_EQ(before.current.h_c, after.current.h_c);
  EXPECT_EQ(before.current.v_c, after.current.v_c);
  EXPECT_EQ(before.prints, after.prints);
  EXPECT_EQ(before.frozen, after.frozen);

  // A new print admitted on either engine resolves identical thresholds.
  const std::size_t a = eng.add_session(rig.spec("probe"));
  const std::size_t b = restored.add_session(rig.spec("probe"));
  const auto ta = eng.snapshot(a).channels.at(0).thresholds;
  const auto tb = restored.snapshot(b).channels.at(0).thresholds;
  EXPECT_EQ(ta.c_c, tb.c_c);
  EXPECT_EQ(ta.h_c, tb.h_c);
  EXPECT_EQ(ta.v_c, tb.v_c);
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST(BaselineRegistryEngine, ExportIsRewrittenOnlyWhenTheRegistryChanged) {
  EngineRig rig;
  const std::string root = ::testing::TempDir() + "nbrg-export-" +
                           std::to_string(::getpid());
  std::filesystem::create_directories(root + "/ckpt");
  std::filesystem::create_directories(root + "/base");
  const std::string ckpt = root + "/ckpt/fleet.nckp";
  MonitorEngineOptions opts;
  opts.baseline.adaptive = true;
  opts.baseline.policy = eager_policy();
  opts.baseline.dir = root + "/base";
  MonitorEngine eng(opts);
  const std::string bpath = eng.baseline_path();

  // First contact seeds the baseline: the first checkpoint exports it.
  const Signal obs = benign_observation(rig.reference, 900);
  const std::size_t id = eng.add_session(rig.spec("p0"));
  eng.feed(id, "acc", obs.view().slice(0, 200));
  eng.poll_inline();
  eng.checkpoint(ckpt);
  ASSERT_TRUE(std::filesystem::exists(bpath));
  const ino_t seeded = inode_of(bpath);

  // Polls without a fold checkpoint the fleet but leave the export alone
  // (an atomic rewrite would show up as a new inode).
  eng.feed(id, "acc", obs.view().slice(200, 400));
  for (int round = 0; round < 2; ++round) {
    eng.poll_inline();
    eng.checkpoint(ckpt);
  }
  EXPECT_EQ(inode_of(bpath), seeded);

  // The end-of-print fold changes the registry: the next checkpoint
  // exports it, and the file matches the registry.
  eng.feed(id, "acc", obs.view().slice(400, obs.frames()));
  eng.evict_session(id);
  eng.poll_inline();
  eng.checkpoint(ckpt);
  EXPECT_NE(inode_of(bpath), seeded);
  expect_same(BaselineRegistry::load(bpath, opts.baseline.policy),
              *eng.baseline_registry());
  EXPECT_EQ(eng.baseline_registry()->baseline("mk3", "acc").prints, 1u);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace nsync
