// ShardedFleet — the multi-core fleet layer, and the only owner of
// threads, locking and checkpoint scheduling.
//
// A MonitorEngine is a single-owner container with no locks.  ShardedFleet
// partitions the fleet across N shards; each shard owns a *private*
// MonitorEngine behind its own mutex and a dedicated worker thread, fed
// through a bounded MPSC FrameQueue:
//
//   ingest threads ──► FrameQueue[shard 0] ──► worker 0 ──► MonitorEngine 0
//          (feed)  ──► FrameQueue[shard 1] ──► worker 1 ──► MonitorEngine 1
//                       ...                                 ...
//
// Sessions are assigned round-robin by global id: session g lives on shard
// g % N at local id g / N.  The mapping is stable for the life of the id
// (ids are never reused; eviction leaves a tombstone), which is also what
// lets restore() rebuild the global registry from the per-shard checkpoint
// files alone — no separate metadata file.
//
// Determinism: one session's frames are processed by exactly one worker in
// feed order (the queue is FIFO and a session never migrates), and window
// processing per session is the same sequential DetectionCore pipeline a
// lone MonitorEngine runs.  With the kBlock overflow policy (no shedding),
// per-session verdicts are therefore bitwise identical at any shard count,
// including against a plain MonitorEngine — pinned by
// tests/test_sharded_fleet.cpp.
//
// Backpressure: each queue has a frame high-water mark and an explicit
// OverflowPolicy (block / drop-oldest / reject); every shed or rejected
// frame is accounted in per-shard stats.  Past saturation the fleet
// degrades by policy, never by unbounded memory growth.
//
// Observation: snapshot(), stats() and baselines() read a per-shard view
// the worker republishes after every round, never the engine itself, so a
// POLL_STATS does not wait behind a long drain + checkpoint round.
//
// Crash safety: every checkpoint_every_polls drain rounds a shard writes
// its engine's streaming state to `<dir>/fleet.<shard>.nckp` (the atomic
// NCKP container), next to one spec file per live session written once at
// admission.  Admission, eviction and checkpoint_all() write the affected
// shards synchronously, so an acknowledged change is durable.  restore()
// reloads all N files and replays bitwise-identical verdicts once the
// feeder resumes each channel at its recorded frames_fed offset.
#ifndef NSYNC_ENGINE_SHARDED_FLEET_HPP
#define NSYNC_ENGINE_SHARDED_FLEET_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/frame_queue.hpp"
#include "engine/monitor_engine.hpp"

namespace nsync::engine {

/// Log-linear latency histogram (microseconds).  Values below 16 us get
/// one bucket each; every octave [2^e, 2^(e+1)) above that is split into
/// 16 equal buckets, so a bucket is at most 1/16 of its lower bound wide
/// and its midpoint, which quantile_us() reports, lies within 1/32
/// (3.2 %) of every value in it.  Fixed-size and allocation-free;
/// merge() adds bucket counts, so a merged histogram equals one that
/// recorded the union.  Values past 2^36 us (19 h) land in the last
/// bucket.
class LatencyHistogram {
 public:
  void record(std::chrono::nanoseconds latency);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Midpoint of the bucket holding the floor(q * (count - 1))-th
  /// smallest sample, in microseconds (q in [0,1]); 0 when empty.
  [[nodiscard]] double quantile_us(double q) const;

 private:
  static constexpr unsigned kSubBits = 4;  // 16 buckets per octave
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kOctaves = 32;
  std::array<std::uint64_t, kSub * (kOctaves + 1)> buckets_{};
  std::uint64_t count_ = 0;
};

/// Outcome of one ShardedFleet::feed call.
enum class FeedStatus : std::uint8_t {
  kOk = 0,
  kShed,             ///< accepted, but older queued frames were dropped
  kRejected,         ///< refused (kReject policy past the high-water mark)
  kUnknownSession,   ///< no such session id
  kUnknownChannel,   ///< session has no channel of that name
  kChannelMismatch,  ///< frame width does not match the channel's
  kEvicted,          ///< session was evicted
  kShardFailed,      ///< the session's shard worker died (supervision)
};

struct FeedResult {
  FeedStatus status = FeedStatus::kOk;
  std::size_t accepted_frames = 0;
  std::size_t shed_frames = 0;   ///< older frames load-shed to make room
  std::size_t queued_frames = 0; ///< shard backlog after this feed
};

struct ShardStats {
  std::size_t shard = 0;
  std::size_t sessions = 0;  ///< live (non-evicted) sessions on the shard
  FrameQueueStats queue;
  std::uint64_t batches = 0;  ///< feed/evict batches processed
  std::uint64_t polls = 0;    ///< drain rounds run by the worker
  std::uint64_t windows = 0;  ///< windows processed by this shard
  std::uint64_t feed_errors = 0;  ///< engine-side feed failures (bug guard)
  bool failed = false;            ///< worker died and was not restarted
  std::uint64_t restarts = 0;     ///< restart-from-checkpoint recoveries
  std::uint64_t discarded_frames = 0;  ///< backlog dropped at failure
  std::string failure_reason;     ///< what() of the escaped exception
  std::uint64_t checkpoints_written = 0;  ///< by the periodic policy
  /// Every shard checkpoint written: the periodic ones plus the
  /// synchronous admission, eviction and checkpoint_all() ones.  The
  /// empty state the constructor writes is not counted.
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t latency_samples = 0;
  double p50_feed_to_verdict_us = 0.0;
  double p99_feed_to_verdict_us = 0.0;
};

struct FleetStats {
  std::size_t shards = 0;
  std::size_t sessions = 0;  ///< ids ever issued (incl. evicted)
  std::size_t evicted = 0;
  std::uint64_t windows = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t rejected_frames = 0;  ///< kReject overload refusals only
  std::uint64_t closed_frames = 0;    ///< shutdown-drain refusals
  std::size_t queued_frames = 0;
  std::size_t failed_shards = 0;  ///< shards currently failed (supervision)
  bool busy = false;  ///< any shard queue non-empty or in flight
  double p50_feed_to_verdict_us = 0.0;  ///< merged across shards
  double p99_feed_to_verdict_us = 0.0;
  std::vector<ShardStats> per_shard;
};

struct ShardedFleetOptions {
  /// Worker shards, each with its own queue and thread.  At least 1: the
  /// constructor throws std::invalid_argument on 0.
  std::size_t shards = 1;
  /// Per-shard queue high-water mark in frames (0 = unbounded).
  std::size_t queue_capacity_frames = 1u << 20;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// When non-empty, shard i periodically checkpoints to
  /// `<checkpoint_dir>/fleet.<i>.nckp`, and add_session/evict become
  /// durable (synchronous checkpoint of the affected shard).  The
  /// directory must already exist; the constructor writes every shard's
  /// empty state into it.
  std::string checkpoint_dir;
  /// Periodic write after this many drain rounds of a shard (counting from
  /// its previous write of any kind).  0 disables the periodic policy.
  std::size_t checkpoint_every_polls = 1;
  /// Per-device baseline adaptation, forwarded to every shard engine.
  /// Each shard owns a private registry (sessions never migrate, so a
  /// device's baseline evolves deterministically within its shard) and
  /// exports to its own file, `<baseline.dir>/baselines.<shard>.nbrg`.
  BaselineOptions baseline;
  /// When set, every admitted session fuses with this policy, overriding
  /// whatever the spec (e.g. a wire client) carried — the daemon-side
  /// `--fusion` knob.  Restored sessions keep their serialized policy.
  std::shared_ptr<const core::FusionPolicy> fusion_override;
  /// Shard-worker supervision.  An exception escaping a worker loop marks
  /// the shard failed: its sessions answer kShardFailed while every other
  /// shard keeps serving.  With restart_from_checkpoint (and a
  /// checkpoint_dir) the shard instead restores its engine from the last
  /// `fleet.<i>.nckp`, discards the misaligned queue backlog (counted in
  /// ShardStats::discarded_frames) and resumes — feeders must resync
  /// their cursors from the snapshot frames_fed offsets, exactly like a
  /// daemon restart.
  struct Supervision {
    bool restart_from_checkpoint = false;
    std::size_t max_restarts = 3;  ///< per shard; beyond this it stays failed
  };
  Supervision supervision;
  /// Test/chaos hook: invoked on the worker thread before each batch is
  /// applied.  Throwing from it simulates a worker-loop failure.
  std::function<void(std::size_t shard, const FrameBatch&)> worker_fault_hook;
};

/// One shard's per-device baselines (see ShardedFleet::baselines()).
struct ShardBaselineEntry {
  std::string model;
  std::string profile;
  DeviceBaseline baseline;
};
struct ShardBaselines {
  std::size_t shard = 0;
  std::vector<ShardBaselineEntry> entries;
};

class ShardedFleet {
 public:
  explicit ShardedFleet(ShardedFleetOptions options = {});
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// Admits a session and returns its fleet-global id.  Ids are dense and
  /// never reused; the shard is id % shards (id 0 on shard 0, …).  When
  /// checkpointing is enabled the target shard is checkpointed before
  /// this returns, so an admission can never be lost to a crash.  Throws
  /// std::invalid_argument on an invalid spec.
  std::size_t add_session(SessionSpec spec);

  /// Marks the session evicted (new feeds fail immediately) and enqueues
  /// the eviction so it lands *in order* with the frames already queued.
  /// The engine-side state is released when the shard worker processes
  /// it.  Throws std::out_of_range on an unknown id; idempotent once
  /// admitted.  Returns true when this call performed the eviction, false
  /// when the session was already evicted — the wire layer surfaces the
  /// latter as a typed kEvicted error instead of silently succeeding.
  bool evict_session(std::size_t session);

  /// Most recently admitted live (non-evicted) session with this name, if
  /// any.  The wire layer uses it to make ADD_SESSION idempotent: a
  /// reconnecting client re-issuing its specs re-attaches to the existing
  /// sessions instead of admitting duplicates.
  [[nodiscard]] std::optional<std::size_t> find_live_session(
      const std::string& name) const;

  /// Returns once the session's shard worker has applied and published
  /// every batch queued before this call, so a snapshot taken afterwards
  /// counts every frame whose feed() was accepted before it.  The wire
  /// layer calls it when a reconnecting client re-attaches, before the
  /// client reads its resume offsets.
  void settle(std::size_t session);

  /// Ids ever issued (including evicted sessions).
  [[nodiscard]] std::size_t sessions() const;

  /// Configured shard count.
  [[nodiscard]] std::size_t shards() const { return options_.shards; }

  /// Shard a session id maps to.
  [[nodiscard]] std::size_t shard_of(std::size_t session) const;

  /// Validates frames for one channel of one session and queues them on
  /// its shard.  Never throws on data-plane errors — the outcome is in the
  /// result, ready to be surfaced as a typed wire reply.
  FeedResult feed(std::size_t session, const std::string& channel,
                  const nsync::signal::SignalView& frames);
  /// feed() of frames the caller hands over: the fleet queues them as
  /// they are instead of copying them into the batch.
  FeedResult feed(std::size_t session, const std::string& channel,
                  nsync::signal::Signal&& frames);

  /// Blocks until every accepted frame has been processed (all queues
  /// empty and all workers idle).
  void flush();

  [[nodiscard]] SessionSnapshot snapshot(std::size_t session) const;
  [[nodiscard]] std::vector<SessionSnapshot> snapshots() const;

  [[nodiscard]] FleetStats stats() const;

  /// Adapted per-device baselines of every shard, sorted by key within a
  /// shard (deterministic).  Empty unless options.baseline.adaptive.
  [[nodiscard]] std::vector<ShardBaselines> baselines() const;

  /// Synchronously checkpoints every shard (requires checkpoint_dir).
  void checkpoint_all() const;

  /// Path of shard i's checkpoint file within checkpoint_dir.
  [[nodiscard]] static std::string shard_checkpoint_filename(
      std::size_t shard);

  /// Rebuilds a fleet from `<dir>/fleet.<i>.nckp` for every shard of
  /// `options.shards` (all files must exist — a missing shard file means
  /// the checkpoint set is incomplete).  The global session registry is
  /// derived from the round-robin id mapping; inconsistent shard files
  /// (counts that no id sequence produces) throw
  /// CheckpointError(kMismatch).
  [[nodiscard]] static std::unique_ptr<ShardedFleet> restore(
      const std::string& dir, ShardedFleetOptions options);

 private:
  /// Both feed() overloads: `frames` views `owned` when the caller handed
  /// its frames over (moved into the batch), else they are copied.
  FeedResult feed_frames(std::size_t session, const std::string& channel,
                         const nsync::signal::SignalView& frames,
                         nsync::signal::Signal* owned);

  /// Worker-side counters of one shard.
  struct ShardCounters {
    std::uint64_t batches = 0;
    std::uint64_t polls = 0;
    std::uint64_t windows = 0;
    std::uint64_t feed_errors = 0;
    std::uint64_t checkpoints_written = 0;  // periodic writes
    std::uint64_t checkpoint_writes = 0;    // every write
  };

  /// A shard as observers see it: snapshot(), stats() and baselines() read
  /// only this.  Republished at the end of every worker round and by every
  /// operation that changes the engine outside one (admission,
  /// checkpoint_all(), a restart), so readers never wait for a round to
  /// finish: a reading linearizes at the end of the last completed round,
  /// the state they would have seen by locking the shard between rounds.
  struct ShardView {
    std::map<std::size_t, SessionSnapshot> sessions;  // live, by local id
    ShardCounters counters;
    /// Feed-to-verdict latency of every FEED batch, recorded in place
    /// by publish() so the per-round counter copy stays small.
    LatencyHistogram latency;
    std::vector<ShardBaselineEntry> baselines;
    std::string failure_reason;
  };

  struct Shard {
    std::unique_ptr<MonitorEngine> engine;  // engine ops serialize on mu
    mutable std::mutex mu;
    std::unique_ptr<FrameQueue> queue;
    std::thread worker;
    ShardCounters counters;  // guarded by mu
    std::size_t polls_since_write = 0;  // guarded by mu
    // Registry generation the view's baselines were copied at (mu).
    std::uint64_t baselines_generation = 0;
    // Worker-round scratch (mu): the sessions a round fed or evicted, and
    // publish()'s refreshed snapshots.  A slot of `fresh` holds the
    // snapshot the view handed back at the last swap.
    std::vector<std::size_t> touched;
    std::vector<SessionSnapshot> fresh;
    // Supervision state.  `failed` is atomic so the feed hot path can
    // check it without taking mu; the failure reason lives in the view.
    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> discarded_frames{0};
    mutable std::mutex view_mu;
    ShardView view;  // guarded by view_mu
  };

  struct ChannelInfo {
    std::string name;
    std::size_t width = 0;  ///< samples per frame
  };

  struct SessionInfo {
    std::size_t shard = 0;
    std::size_t local = 0;  ///< id within the shard's engine
    std::string name;
    std::vector<ChannelInfo> channels;
    bool evicted = false;
  };

  /// restore() path: rebuilds every shard engine from
  /// `<restore_dir>/fleet.<i>.nckp`, re-derives the registry, then starts
  /// the workers.
  ShardedFleet(ShardedFleetOptions options, const std::string& restore_dir);

  [[nodiscard]] MonitorEngineOptions engine_options(std::size_t shard) const;
  void start_workers();
  void worker_loop(std::size_t index, Shard& shard);
  void process_batches(std::size_t index, Shard& shard,
                       const std::vector<FrameBatch>& batches);
  /// The one place shard checkpoints are decided.  `polled`: a drain round
  /// just ran and counts toward the periodic policy; `durable`: the caller
  /// needs the shard on disk now (admission, eviction, checkpoint_all()).
  /// Writes at most once.  No-op without a checkpoint_dir.  Caller holds
  /// shard.mu.
  void checkpoint_shard(std::size_t index, Shard& shard, bool polled,
                        bool durable) const;
  /// Handles an exception that escaped batch processing.  Returns true
  /// when the shard was restarted from its checkpoint and the worker loop
  /// should continue; false when the failure is permanent (queue closed
  /// and drained so flush() can never hang on the dead worker).
  bool supervise_failure(std::size_t index, Shard& shard,
                         const std::string& what);
  /// Republishes shard.view: the snapshots of the `touched` local
  /// sessions, the counters, and the baselines if the registry changed,
  /// and records the feed-to-verdict latency of every kFeed batch in
  /// `fed`.  Each snapshot is refreshed into shard.fresh and swapped into
  /// its view node, so view_mu is held for O(1) per session and a warm
  /// round allocates nothing.  Caller holds shard.mu.
  static void publish(Shard& shard, std::span<const std::size_t> touched,
                      std::span<const FrameBatch> fed = {});
  /// publish() of every session, replacing the view's session set (after
  /// the engine was built or replaced).  Caller holds shard.mu.
  static void publish_all(Shard& shard);

  ShardedFleetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex admission_mu_;  // serializes add_session (id order)
  mutable std::shared_mutex registry_mu_;
  std::vector<SessionInfo> registry_;  // grows only under admission_mu_
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_SHARDED_FLEET_HPP
