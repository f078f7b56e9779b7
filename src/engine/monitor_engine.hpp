// Multi-session monitoring engine — the fleet layer on top of the
// streaming detection stack.
//
// One MonitorEngine serves N print-monitoring sessions.  A session is one
// print job: per-channel reference signals + NSYNC configs + learned
// thresholds, one RealtimeMonitor per side channel, and a health-aware
// fusion rule over the per-channel verdicts (the same vote as the batch
// FusionIds, via core::fused_intrusion).
//
// Frames arrive via feed(), which pushes them straight into the channel's
// RealtimeMonitor: every window they complete is processed on the spot.
// The fused verdict is refreshed at poll time: poll_inline() scores every
// session that processed windows since its last refresh, poll_session()
// one.  Memory stays bounded: the monitors' synchronizer buffers are rings
// that keep only the frames a future window reads.
//
// The engine is a plain single-owner container: it holds no locks and
// starts no threads.  ShardedFleet (engine/sharded_fleet.hpp) runs one
// engine per shard and owns the threads, the locking and the checkpoint
// schedule.
#ifndef NSYNC_ENGINE_MONITOR_ENGINE_HPP
#define NSYNC_ENGINE_MONITOR_ENGINE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fusion.hpp"
#include "core/health.hpp"
#include "core/nsync.hpp"
#include "engine/baseline_registry.hpp"
#include "signal/signal.hpp"

namespace nsync::signal {
class ByteWriter;
class ByteReader;
}  // namespace nsync::signal

namespace nsync::engine {

/// One side channel of a session: its reference signal, NSYNC config and
/// learned OCC thresholds (train offline with NsyncIds::fit, or reuse a
/// fleet-wide calibration).  `config.sync` must be kDwm.
struct ChannelSpec {
  std::string name;
  nsync::signal::Signal reference;
  core::NsyncConfig config;
  core::Thresholds thresholds;
};

/// One monitored print job.
struct SessionSpec {
  std::string name;
  /// Printer model this session's device belongs to.  Together with each
  /// channel's name (the sensor profile) it keys the baseline registry:
  /// when the engine runs adaptive, admission re-resolves each channel's
  /// thresholds from the per-device baseline and eviction folds the
  /// print's benign feature maxima back in.  Empty opts the session out
  /// of adaptation (its trained thresholds are used verbatim).
  std::string model;
  std::vector<ChannelSpec> channels;
  /// Voting rule used when `policy` is null (the historical field).
  core::FusionRule rule = core::FusionRule::kAny;
  /// Fusion policy for the session's fused verdict.  Null synthesizes
  /// VotingPolicy(rule) at admission, preserving the rule-era behavior
  /// (and its serialized bytes) exactly.
  std::shared_ptr<const core::FusionPolicy> policy;
};

/// Point-in-time view of one channel of a session.
struct ChannelSnapshot {
  std::string name;
  core::Detection detection;
  core::ChannelHealth health = core::ChannelHealth::kHealthy;
  /// The OCC thresholds this channel's monitor is armed with (after any
  /// registry resolution at admission) — lets operators and the
  /// crash-recovery diff observe adapted calibration per session.
  core::Thresholds thresholds;
  /// Normalized OCC margin (core::channel_score) over the windows
  /// processed so far: 1.0 = at the learned threshold.
  double score = 0.0;
  /// This channel's normalized share of the fused verdict under the
  /// session's policy (0 for offline channels).
  double weight = 0.0;
  std::size_t width = 0;           ///< samples per frame (signal channels)
  double sample_rate = 0.0;        ///< frames per second
  std::size_t windows = 0;         ///< windows processed so far
  /// Total frames ever fed to this channel.  After a restore this tells
  /// the feeder where to resume its stream.
  std::size_t frames_fed = 0;
};

/// Point-in-time view of one session: the fused verdict plus per-channel
/// breakdown and progress counters.
struct SessionSnapshot {
  std::string name;
  /// True once the session has been evicted: its monitors and buffers are
  /// released, only the name and this flag remain (ids are never reused).
  bool evicted = false;
  bool intrusion = false;  ///< latched fused verdict
  /// Earliest first_alarm_window among the channels alarming when the
  /// fused verdict latched; -1 while benign.
  std::ptrdiff_t first_alarm_window = -1;
  /// The session's fusion policy name ("any", "weighted", ...); empty on
  /// an evicted tombstone.
  std::string policy;
  /// Current fused anomaly score under the session's policy (see
  /// core::FusedVerdict::score) — live telemetry, not latched.
  double fused_score = 0.0;
  std::size_t alarming_channels = 0;  ///< alarming among online channels
  std::size_t online_channels = 0;    ///< channels not classified offline
  std::size_t frames_fed = 0;         ///< total frames accepted via feed()
  std::size_t windows = 0;            ///< min windows across channels
  std::vector<ChannelSnapshot> channels;
};

/// Per-device baseline adaptation knobs (see engine/baseline_registry.hpp
/// for the state machine and anti-poisoning guarantees).
struct BaselineOptions {
  /// Enables the registry: add_session resolves each channel's thresholds
  /// from the (model, channel-name) baseline, evict_session folds the
  /// finished print's benign feature maxima back in (gated on a benign
  /// fused verdict and all-healthy channels).
  bool adaptive = false;
  /// When non-empty: construction bootstraps the registry from
  /// `<dir>/<filename>` if that file exists, and checkpoint() exports the
  /// registry there (atomic NCKP container) whenever it changed since the
  /// last export.  The authoritative crash-consistent copy always lives
  /// inside the fleet checkpoint payload itself.
  std::string dir;
  std::string filename = "baselines.nbrg";
  AdaptationPolicy policy;
};

/// Engine options.
struct MonitorEngineOptions {
  /// Per-device baseline adaptation (off by default).
  BaselineOptions baseline;
};

/// N streaming sessions, processed on the calling thread.
///
/// Thread safety: one owner drives the engine, and the owner serializes
/// access.
class MonitorEngine {
 public:
  explicit MonitorEngine(MonitorEngineOptions options = {});

  /// Registers a session and returns its id (dense, starting at 0).
  /// Throws std::invalid_argument on an empty or invalid spec.
  std::size_t add_session(SessionSpec spec);

  [[nodiscard]] std::size_t sessions() const { return sessions_.size(); }

  /// Pushes observed frames through one channel's monitor and returns the
  /// number of windows they completed.  The session's fused verdict sees
  /// those windows at its next poll.
  std::size_t feed(std::size_t session, const std::string& channel,
                   const nsync::signal::SignalView& frames);

  /// Refreshes the fused verdict of every session that processed windows
  /// since its last refresh.  Windows are counted by feed(), so this
  /// returns 0.
  std::size_t poll_inline();

  /// poll_inline() for one session only.
  std::size_t poll_session(std::size_t session);

  /// Refreshes the session's fused verdict, then releases its monitors and
  /// reference signals, leaving a named tombstone so session ids stay
  /// stable (they are never reused).  Evicted sessions are skipped by
  /// poll_inline() and serialized as stubs; feeding one throws
  /// std::invalid_argument.  Idempotent.
  void evict_session(std::size_t session);

  /// Point-in-time view of one session.  Scores it from each channel's
  /// running feature maxima, so the cost does not grow with the print.
  [[nodiscard]] SessionSnapshot snapshot(std::size_t session) const;
  /// snapshot() into `out`: overwrites every field and reuses the storage
  /// `out` already holds, so refreshing a snapshot of the same shape
  /// allocates nothing.
  void snapshot_into(std::size_t session, SessionSnapshot& out) const;

  // --- Crash-safe checkpointing -------------------------------------------
  //
  // A checkpoint splits each session into its spec — name, model,
  // reference signals, configs, resolved thresholds, effective fusion
  // policy; immutable from admission on and ~94 % of the bytes for raw
  // channels — and its streaming state (synchronizer rings, detection
  // cores, health machines, fused verdict).  The state
  // section names its spec by byte size + CRC-32 only; the spec bytes
  // (save_session_spec encoding) live either
  //   * in spec files beside the checkpoint, spec_path(path, id), each
  //     written atomically once, the first time checkpoint(path) sees the
  //     session — so a periodic checkpoint costs O(streaming state); or
  //   * in a table at the end of the payload (serialize()), which keeps
  //     the in-memory form self-contained.
  // The bitwise-recovery property (tests/test_checkpoint.cpp): kill the
  // process at any point, restore the last checkpoint, replay the frames
  // fed since, and every detection, health state, fused verdict and
  // first_alarm_window is identical to a run that never stopped.

  /// Serializes the whole fleet, spec table included, into a checkpoint
  /// payload (unframed).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Atomically replaces `path` with the fleet's streaming state, after
  /// first writing the spec file of every live session not yet written
  /// for `path`.  Spec files of evicted sessions are deleted only once the
  /// checkpoint holding their tombstone is durable.  A crash at any point
  /// leaves a restorable set of files.  Throws CheckpointError(kIo) on
  /// filesystem failure.  One engine per `path`: spec files are keyed by
  /// session id.
  void checkpoint(const std::string& path) const;

  /// Rebuilds a fleet from a serialize() payload.  Throws CheckpointError
  /// (kTruncated/kCorrupt/kMismatch, kBadVersion for the pre-spec-file
  /// layout) on malformed input; never applies a partial restore (the
  /// engine is built fresh or not at all).  Accepts only canonical bytes:
  /// serialize() of the result reproduces `payload` exactly.  A channel
  /// state armed with other thresholds than its spec is kMismatch.  A
  /// payload whose specs live in spec files (a checkpoint() file's) needs
  /// restore(path): kIo.
  [[nodiscard]] static MonitorEngine restore_from_bytes(
      std::span<const std::uint8_t> payload, MonitorEngineOptions options = {});

  /// Reads, validates and restores a checkpoint file written by
  /// checkpoint(), reading each live session's spec file.  Adds
  /// kIo/kBadMagic/kBadVersion to the error set: kIo for a missing spec
  /// file, kMismatch for one whose size or CRC is not the referenced one.
  /// After a successful restore, deletes what crashes left beside `path`:
  /// other processes' tmp files and spec files the checkpoint does not
  /// reference.
  [[nodiscard]] static MonitorEngine restore(const std::string& path,
                                             MonitorEngineOptions options = {});

  /// File holding session `session`'s spec for the checkpoint at
  /// `checkpoint_path` (`<checkpoint_path>.s<session>.spec`).
  [[nodiscard]] static std::string spec_path(const std::string& checkpoint_path,
                                             std::size_t session);

  /// Where checkpoint() exports the registry
  /// (`<baseline.dir>/<baseline.filename>`); empty when adaptation is off
  /// or no baseline dir is configured.
  [[nodiscard]] std::string baseline_path() const;

  /// The per-device baseline registry, or nullptr when the engine runs
  /// with fixed thresholds (options.baseline.adaptive == false).
  [[nodiscard]] const BaselineRegistry* baseline_registry() const {
    return registry_.get();
  }

 private:
  struct Channel {
    std::string name;
    core::RealtimeMonitor monitor;

    /// Takes the spec's name and reference by move: admission owns its
    /// SessionSpec, so the reference is never copied into the monitor.
    explicit Channel(ChannelSpec&& spec);
  };

  /// Byte size + CRC-32 of a session's encoded spec: how a checkpoint
  /// names the spec it was taken against.
  struct SpecRef {
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };

  struct Session {
    std::string name;
    std::string model;  ///< registry key prefix; empty = not adaptive
    /// Fusion policy driving the fused verdict; set at admission (a null
    /// spec policy becomes VotingPolicy(spec.rule)), cleared on eviction
    /// with the rest of the dynamic state.
    std::shared_ptr<const core::FusionPolicy> policy;
    std::vector<Channel> channels;
    bool intrusion = false;
    std::ptrdiff_t first_alarm_window = -1;
    bool evicted = false;
    /// feed() processed windows the fused verdict has not seen yet.  Not
    /// checkpointed: restore sets it on every live session, and one more
    /// evaluation of an unchanged state changes nothing.
    bool unscored = false;
    /// The policy's verdict over the session's current channel scores,
    /// shared by score() and snapshot_into(); valid while `fused_current`.
    /// Every input of channel_scores() — feature maxima, alarm bits, first
    /// alarm windows, health — moves only when a window completes (or a
    /// new Session is built at admission or restore), so feed() clears
    /// the flag exactly when windows completed.  Mutable: a snapshot fills
    /// the cache but changes no engine state.
    mutable core::FusedVerdict fused;
    mutable bool fused_current = false;
    // Checkpoint bookkeeping.  Mutable: checkpoint() and
    // serialize() are const (they change no fleet state) but remember what
    // they computed and wrote.  spec_ref is set once — the spec never
    // changes after admission; spec_file is the spec file last written
    // for this session (empty once an evicted session's file is deleted).
    mutable std::optional<SpecRef> spec_ref;
    mutable std::string spec_file;
  };

  Session& session_at(std::size_t id);
  [[nodiscard]] const Session& session_at(std::size_t id) const;
  /// Fills `out` with the per-channel score vector for the session's
  /// policy (latched alarm bits + live normalized OCC margins), reusing
  /// its storage.
  static void channel_scores(const Session& s,
                             std::vector<core::ChannelScore>& out);
  /// The session's fused verdict over its current channel scores,
  /// evaluated only when they changed since the last call.  The session
  /// must be live.
  const core::FusedVerdict& fused_verdict(const Session& s) const;
  /// Refreshes the latched verdict of `s` if feed() processed windows
  /// since the last refresh.
  void score(Session& s);
  /// Appends the session's spec in save_session_spec encoding to `w`.
  /// The session must be live.
  static void encode_spec(nsync::signal::ByteWriter& w, const Session& s);
  /// Shared by restore() and restore_from_bytes(): `checkpoint_path` is
  /// where spec files are looked up when the payload has no spec table
  /// (nullptr: none may be looked up).
  [[nodiscard]] static MonitorEngine restore_payload(
      std::span<const std::uint8_t> payload, MonitorEngineOptions options,
      const std::string* checkpoint_path);
  /// restore() cleanup: stale tmp files and unreferenced spec files.
  void remove_orphans(const std::string& path) const;
  /// Exports the registry to baseline_path() if it changed since the last
  /// export.
  void export_baselines() const;

  MonitorEngineOptions options_;
  std::vector<Session> sessions_;
  // Present iff options_.baseline.adaptive.
  std::unique_ptr<BaselineRegistry> registry_;
  // restore_from_bytes() admits sessions with their *serialized* (already
  // resolved) thresholds; re-resolving them against the restored registry
  // would arm newer thresholds than the original run and break bitwise
  // verdict replay.  Cleared for the duration of the restore loop.
  bool resolve_on_admission_ = true;
  // Registry generation last exported to baseline_path(); max = never.
  mutable std::uint64_t exported_generation_ =
      std::numeric_limits<std::uint64_t>::max();
  // fused_verdict() scratch: the score vector of the session being
  // evaluated, kept across calls so the warm path allocates nothing.
  // Mutable: a snapshot changes no engine state.
  mutable std::vector<core::ChannelScore> scores_;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_MONITOR_ENGINE_HPP
