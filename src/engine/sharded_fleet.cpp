#include "engine/sharded_fleet.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "signal/checkpoint.hpp"

namespace nsync::engine {

using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::Signal;
using nsync::signal::SignalView;

// ---------------------------------------------------------------------------
// LatencyHistogram

void LatencyHistogram::record(std::chrono::nanoseconds latency) {
  const auto us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, latency.count() / 1000));
  std::size_t bucket = 0;
  if (us < kSub) {
    bucket = static_cast<std::size_t>(us);
  } else {
    // us in octave [2^e, 2^(e+1)), e >= kSubBits: its top kSubBits + 1
    // bits pick the octave's sub-bucket.
    const auto shift =
        static_cast<unsigned>(std::bit_width(us)) - 1 - kSubBits;
    bucket = static_cast<std::size_t>(kSub * (1 + shift) + (us >> shift) -
                                      kSub);
  }
  ++buckets_[std::min(bucket, buckets_.size() - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) break;
  }
  // Bucket i covers [lo, lo + width): width 1 below kSub, else 2^shift.
  const std::uint64_t shift = i < kSub ? 0 : i / kSub - 1;
  const std::uint64_t lo = i < kSub ? i : (kSub + i % kSub) << shift;
  return static_cast<double>(lo) +
         0.5 * static_cast<double>(std::uint64_t{1} << shift);
}

// ---------------------------------------------------------------------------
// Construction / teardown

namespace {

ShardedFleetOptions with_shards(ShardedFleetOptions options) {
  if (options.shards == 0) {
    throw std::invalid_argument("ShardedFleet: shards must be at least 1");
  }
  return options;
}

}  // namespace

MonitorEngineOptions ShardedFleet::engine_options(std::size_t shard) const {
  MonitorEngineOptions opts;
  opts.baseline = options_.baseline;
  if (opts.baseline.adaptive) {
    opts.baseline.filename =
        "baselines." + std::to_string(shard) + ".nbrg";
  }
  return opts;
}

ShardedFleet::ShardedFleet(ShardedFleetOptions options)
    : options_(with_shards(std::move(options))) {
  const std::size_t n = options_.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<MonitorEngine>(engine_options(i));
    // Every shard's file exists before a worker starts, so any directory
    // a crash leaves holds the full set and restore() can keep treating a
    // missing shard file as a lost one.
    if (!options_.checkpoint_dir.empty()) {
      shard->engine->checkpoint(options_.checkpoint_dir + "/" +
                                shard_checkpoint_filename(i));
    }
    shards_.push_back(std::move(shard));
  }
  start_workers();
}

void ShardedFleet::start_workers() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    {
      const std::scoped_lock lock(s->mu);
      publish_all(*s);
    }
    s->queue = std::make_unique<FrameQueue>(options_.queue_capacity_frames,
                                            options_.overflow);
    s->worker = std::thread([this, i, s] { worker_loop(i, *s); });
  }
}

ShardedFleet::~ShardedFleet() {
  for (auto& shard : shards_) shard->queue->close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

// ---------------------------------------------------------------------------
// Worker

void ShardedFleet::worker_loop(std::size_t index, Shard& shard) {
  std::vector<FrameBatch> batches;
  while (shard.queue->pop_all(batches)) {
    try {
      process_batches(index, shard, batches);
    } catch (const std::exception& e) {
      shard.queue->mark_processed();
      if (supervise_failure(index, shard, e.what())) continue;
      return;  // permanent failure: queue closed and drained
    } catch (...) {
      shard.queue->mark_processed();
      if (supervise_failure(index, shard, "non-standard exception")) continue;
      return;
    }
    shard.queue->mark_processed();
  }
}

void ShardedFleet::process_batches(std::size_t index, Shard& shard,
                                   const std::vector<FrameBatch>& batches) {
  bool evicted_any = false;
  std::size_t windows = 0;
  const std::scoped_lock lock(shard.mu);
  std::vector<std::size_t>& touched = shard.touched;
  touched.clear();
  for (const auto& b : batches) {
    if (b.kind == FrameBatch::Kind::kBarrier) continue;  // after publish
    if (options_.worker_fault_hook) options_.worker_fault_hook(index, b);
    touched.push_back(b.session);
    if (b.kind == FrameBatch::Kind::kEvict) {
      shard.engine->evict_session(b.session);
      evicted_any = true;
      continue;
    }
    try {
      windows += shard.engine->feed(b.session, b.channel, b.frames.view());
    } catch (const std::exception&) {
      // feed() validated at ingest; an engine-side failure here is a
      // race with eviction (frames queued before the evict command of
      // a re-used... never: ids are not reused) or a bug.  Either
      // way: count it, keep the shard alive.
      ++shard.counters.feed_errors;
    }
  }
  // Windows were processed and counted by the feeds; the poll refreshes
  // the fused verdicts of the sessions they touched.
  shard.engine->poll_inline();
  shard.counters.windows += windows;
  ++shard.counters.polls;
  shard.counters.batches += batches.size();
  // Make eviction durable on the spot instead of waiting for the next
  // periodic write: a restore must not resurrect a session the caller was
  // told is gone.
  checkpoint_shard(index, shard, /*polled=*/true, /*durable=*/evicted_any);
  // Only the sessions this round fed or evicted changed.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  publish(shard, touched, batches);
  for (const auto& b : batches) {
    if (b.kind == FrameBatch::Kind::kBarrier) b.reached->set_value();
  }
}

void ShardedFleet::publish(Shard& shard, std::span<const std::size_t> touched,
                           std::span<const FrameBatch> fed) {
  // Refresh outside view_mu, into snapshots the worker owns: a slot holds
  // whatever the view last handed back, so a refresh of a session already
  // published reuses that storage and allocates nothing.
  if (shard.fresh.size() < touched.size()) shard.fresh.resize(touched.size());
  for (std::size_t i = 0; i < touched.size(); ++i) {
    shard.engine->snapshot_into(touched[i], shard.fresh[i]);
  }
  // The registry changes only at admission (first-contact resolve) and
  // eviction (fold); copy it only then.
  std::optional<std::vector<ShardBaselineEntry>> baselines;
  const BaselineRegistry* reg = shard.engine->baseline_registry();
  if (reg != nullptr && reg->generation() != shard.baselines_generation) {
    shard.baselines_generation = reg->generation();
    baselines.emplace();
    for (const auto& [model, profile] : reg->keys()) {
      baselines->push_back({model, profile, reg->baseline(model, profile)});
    }
  }
  const auto now = std::chrono::steady_clock::now();
  const std::scoped_lock lock(shard.view_mu);
  for (const auto& b : fed) {
    if (b.kind == FrameBatch::Kind::kFeed) {
      shard.view.latency.record(now - b.enqueued_at);
    }
  }
  // Swap each refreshed snapshot into its map node: O(1) per session
  // under the lock, and the old snapshot goes back to the scratch slot.
  for (std::size_t i = 0; i < touched.size(); ++i) {
    SessionSnapshot& snap = shard.fresh[i];
    if (snap.evicted) {
      shard.view.sessions.erase(touched[i]);
    } else {
      std::swap(shard.view.sessions[touched[i]], snap);
    }
  }
  shard.view.counters = shard.counters;
  if (baselines) shard.view.baselines = std::move(*baselines);
}

void ShardedFleet::publish_all(Shard& shard) {
  std::vector<std::size_t> all(shard.engine->sessions());
  std::iota(all.begin(), all.end(), std::size_t{0});
  // A new engine restarts its registry's generation count.
  shard.baselines_generation = std::numeric_limits<std::uint64_t>::max();
  {
    const std::scoped_lock lock(shard.view_mu);
    shard.view.sessions.clear();
  }
  publish(shard, all);
}

void ShardedFleet::checkpoint_shard(std::size_t index, Shard& shard,
                                    bool polled, bool durable) const {
  if (options_.checkpoint_dir.empty()) return;
  if (polled) ++shard.polls_since_write;
  const bool periodic = polled && options_.checkpoint_every_polls > 0 &&
                        shard.polls_since_write >=
                            options_.checkpoint_every_polls;
  if (!periodic && !durable) return;
  shard.engine->checkpoint(options_.checkpoint_dir + "/" +
                           shard_checkpoint_filename(index));
  shard.polls_since_write = 0;
  ++shard.counters.checkpoint_writes;
  if (periodic) ++shard.counters.checkpoints_written;
}

bool ShardedFleet::supervise_failure(std::size_t index, Shard& shard,
                                     const std::string& what) {
  {
    const std::scoped_lock lock(shard.view_mu);
    shard.view.failure_reason = what;
  }
  shard.failed.store(true, std::memory_order_release);
  // The backlog queued behind the failure is contiguous with the *failed*
  // engine state, not with the checkpoint a restart would restore — drop
  // and account it either way; feeders resync from frames_fed offsets.
  shard.discarded_frames.fetch_add(shard.queue->discard_pending(),
                                   std::memory_order_relaxed);
  const bool want_restart = options_.supervision.restart_from_checkpoint &&
                            !options_.checkpoint_dir.empty() &&
                            shard.restarts.load(std::memory_order_relaxed) <
                                options_.supervision.max_restarts;
  if (want_restart) {
    try {
      // Under the shard lock: an admission must not write its spec and
      // state between the restore's read and the restored engine taking
      // over (the restore would delete that spec file as unreferenced).
      const std::scoped_lock lock(shard.mu);
      MonitorEngine restored = MonitorEngine::restore(
          options_.checkpoint_dir + "/" + shard_checkpoint_filename(index),
          engine_options(index));
      *shard.engine = std::move(restored);
      shard.polls_since_write = 0;
      publish_all(shard);
      shard.restarts.fetch_add(1, std::memory_order_relaxed);
      shard.failed.store(false, std::memory_order_release);
      return true;
    } catch (const std::exception&) {
      // No usable checkpoint: fall through to permanent failure.
    }
  }
  // Permanent failure: close the queue so blocked producers unblock and
  // drop whatever raced in, leaving the queue empty and idle — flush()
  // and the destructor can never hang on a dead worker.
  shard.queue->close();
  shard.discarded_frames.fetch_add(shard.queue->discard_pending(),
                                   std::memory_order_relaxed);
  return false;
}

// ---------------------------------------------------------------------------
// Admission / eviction

std::size_t ShardedFleet::add_session(SessionSpec spec) {
  if (options_.fusion_override) {
    spec.policy = options_.fusion_override;
  }
  SessionInfo info;
  info.name = spec.name;
  info.channels.reserve(spec.channels.size());
  for (const auto& c : spec.channels) {
    info.channels.push_back({c.name, c.reference.channels()});
  }
  // Admissions serialize among themselves; the registry lock is taken only
  // to read the next id and to publish the entry, so feeds and snapshots
  // never wait behind an admission's shard round and checkpoint.
  const std::scoped_lock admission_lock(admission_mu_);
  std::size_t id = 0;
  {
    const std::shared_lock lock(registry_mu_);
    id = registry_.size();
  }
  const std::size_t S = options_.shards;
  info.shard = id % S;
  info.local = id / S;
  Shard& shard = *shards_[info.shard];
  {
    const std::scoped_lock lock(shard.mu);
    const std::size_t local = shard.engine->add_session(std::move(spec));
    if (local != info.local) {
      // Round-robin admission is the registry's invariant; a divergence
      // here would silently corrupt the id mapping.
      throw std::logic_error("ShardedFleet: shard-local id drifted");
    }
    // Durable admission: the session must survive a crash that happens
    // right after the caller learns its id.
    checkpoint_shard(info.shard, shard, /*polled=*/false, /*durable=*/true);
    publish(shard, std::span(&local, 1));
  }
  const std::unique_lock registry_lock(registry_mu_);
  registry_.push_back(std::move(info));
  return id;
}

bool ShardedFleet::evict_session(std::size_t session) {
  const std::unique_lock registry_lock(registry_mu_);
  if (session >= registry_.size()) {
    throw std::out_of_range("ShardedFleet: no session " +
                            std::to_string(session));
  }
  SessionInfo& info = registry_[session];
  if (info.evicted) return false;
  info.evicted = true;
  Shard& shard = *shards_[info.shard];
  FrameBatch evict;
  evict.kind = FrameBatch::Kind::kEvict;
  evict.session = info.local;
  evict.enqueued_at = std::chrono::steady_clock::now();
  shard.queue->push(std::move(evict));
  return true;
}

std::optional<std::size_t> ShardedFleet::find_live_session(
    const std::string& name) const {
  const std::shared_lock lock(registry_mu_);
  for (std::size_t i = registry_.size(); i > 0; --i) {
    const SessionInfo& info = registry_[i - 1];
    if (!info.evicted && info.name == name) return i - 1;
  }
  return std::nullopt;
}

void ShardedFleet::settle(std::size_t session) {
  Shard& shard = *shards_[shard_of(session)];
  FrameBatch barrier;
  barrier.kind = FrameBatch::Kind::kBarrier;
  barrier.reached = std::make_shared<std::promise<void>>();
  std::future<void> reached = barrier.reached->get_future();
  barrier.enqueued_at = std::chrono::steady_clock::now();
  // A closed (or kReject-overloaded) queue refuses the barrier: nothing
  // more will be applied from it, or the caller sees the overload anyway.
  if (!shard.queue->push(std::move(barrier)).accepted) return;
  try {
    reached.get();
  } catch (const std::future_error&) {
    // Dropped with a discarded backlog: what was queued before it will
    // never be applied, which settles it too.
  }
}

std::size_t ShardedFleet::sessions() const {
  const std::shared_lock lock(registry_mu_);
  return registry_.size();
}

std::size_t ShardedFleet::shard_of(std::size_t session) const {
  const std::shared_lock lock(registry_mu_);
  if (session >= registry_.size()) {
    throw std::out_of_range("ShardedFleet: no session " +
                            std::to_string(session));
  }
  return registry_[session].shard;
}

// ---------------------------------------------------------------------------
// Data plane

FeedResult ShardedFleet::feed(std::size_t session, const std::string& channel,
                              const SignalView& frames) {
  return feed_frames(session, channel, frames, nullptr);
}

FeedResult ShardedFleet::feed(std::size_t session, const std::string& channel,
                              Signal&& frames) {
  return feed_frames(session, channel, SignalView(frames), &frames);
}

FeedResult ShardedFleet::feed(std::size_t session, const std::string& channel,
                              Signal&& frames, DeferredWakes& wakes) {
  return feed_frames(session, channel, SignalView(frames), &frames, &wakes);
}

void ShardedFleet::DeferredWakes::release() {
  for (const std::size_t shard : owed_) fleet_.shards_[shard]->queue->wake();
  owed_.clear();
}

FeedResult ShardedFleet::feed_frames(std::size_t session,
                                     const std::string& channel,
                                     const SignalView& frames, Signal* owned,
                                     DeferredWakes* wakes) {
  FeedResult result;
  std::size_t shard_idx = 0;
  std::size_t local = 0;
  {
    const std::shared_lock lock(registry_mu_);
    if (session >= registry_.size()) {
      result.status = FeedStatus::kUnknownSession;
      return result;
    }
    const SessionInfo& info = registry_[session];
    if (info.evicted) {
      result.status = FeedStatus::kEvicted;
      return result;
    }
    const ChannelInfo* ch = nullptr;
    for (const auto& c : info.channels) {
      if (c.name == channel) {
        ch = &c;
        break;
      }
    }
    if (ch == nullptr) {
      result.status = FeedStatus::kUnknownChannel;
      return result;
    }
    if (frames.channels() != ch->width) {
      result.status = FeedStatus::kChannelMismatch;
      return result;
    }
    shard_idx = info.shard;
    local = info.local;
  }
  Shard& shard = *shards_[shard_idx];
  if (shard.failed.load(std::memory_order_acquire)) {
    result.status = FeedStatus::kShardFailed;
    return result;
  }

  FrameBatch batch;
  batch.session = local;
  batch.channel = channel;
  batch.frames = owned != nullptr ? std::move(*owned) : frames.to_signal();
  batch.enqueued_at = std::chrono::steady_clock::now();
  const FrameQueue::PushResult push = shard.queue->push(
      std::move(batch),
      wakes != nullptr ? FrameQueue::Wake::kDeferred : FrameQueue::Wake::kNow);
  if (wakes != nullptr && push.accepted &&
      std::find(wakes->owed_.begin(), wakes->owed_.end(), shard_idx) ==
          wakes->owed_.end()) {
    wakes->owed_.push_back(shard_idx);
  }
  result.queued_frames = push.queued_frames;
  if (!push.accepted) {
    // A push can also fail because supervision closed the queue between
    // the failed-flag check above and here; surface that as the typed
    // shard failure rather than phantom overload.
    result.status = shard.failed.load(std::memory_order_acquire)
                        ? FeedStatus::kShardFailed
                        : FeedStatus::kRejected;
    return result;
  }
  result.accepted_frames = frames.frames();
  result.shed_frames = push.shed_frames;
  if (push.shed_frames > 0) result.status = FeedStatus::kShed;
  return result;
}

void ShardedFleet::flush() {
  for (auto& shard : shards_) shard->queue->wait_idle();
}

// ---------------------------------------------------------------------------
// Observation

SessionSnapshot ShardedFleet::snapshot(std::size_t session) const {
  std::size_t shard_idx = 0;
  std::size_t local = 0;
  {
    const std::shared_lock lock(registry_mu_);
    if (session >= registry_.size()) {
      throw std::out_of_range("ShardedFleet: no session " +
                              std::to_string(session));
    }
    const SessionInfo& info = registry_[session];
    if (info.evicted) {
      SessionSnapshot stub;
      stub.name = info.name;
      stub.evicted = true;
      return stub;
    }
    shard_idx = info.shard;
    local = info.local;
  }
  const Shard& shard = *shards_[shard_idx];
  const std::scoped_lock lock(shard.view_mu);
  return shard.view.sessions.at(local);
}

std::vector<SessionSnapshot> ShardedFleet::snapshots() const {
  std::vector<SessionSnapshot> out;
  const std::size_t n = sessions();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(snapshot(i));
  return out;
}

FleetStats ShardedFleet::stats() const {
  FleetStats out;
  out.shards = options_.shards;
  {
    const std::shared_lock lock(registry_mu_);
    out.sessions = registry_.size();
    for (const auto& info : registry_) {
      if (info.evicted) ++out.evicted;
    }
  }
  LatencyHistogram merged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats s;
    s.shard = i;
    s.queue = shard.queue->stats();
    s.failed = shard.failed.load(std::memory_order_acquire);
    s.restarts = shard.restarts.load(std::memory_order_relaxed);
    s.discarded_frames = shard.discarded_frames.load(std::memory_order_relaxed);
    if (s.failed) ++out.failed_shards;
    ShardCounters c;
    LatencyHistogram latency;
    {
      const std::scoped_lock lock(shard.view_mu);
      s.failure_reason = shard.view.failure_reason;
      c = shard.view.counters;
      latency = shard.view.latency;
    }
    s.batches = c.batches;
    s.polls = c.polls;
    s.windows = c.windows;
    s.feed_errors = c.feed_errors;
    s.checkpoints_written = c.checkpoints_written;
    s.checkpoint_writes = c.checkpoint_writes;
    s.latency_samples = latency.count();
    s.p50_feed_to_verdict_us = latency.quantile_us(0.50);
    s.p99_feed_to_verdict_us = latency.quantile_us(0.99);
    merged.merge(latency);
    out.windows += s.windows;
    out.shed_frames += s.queue.shed_frames;
    out.rejected_frames += s.queue.rejected_frames;
    out.closed_frames += s.queue.closed_frames;
    out.queued_frames += s.queue.queued_frames;
    if (s.queue.queued_batches > 0 || s.queue.in_flight) out.busy = true;
    out.per_shard.push_back(s);
  }
  out.p50_feed_to_verdict_us = merged.quantile_us(0.50);
  out.p99_feed_to_verdict_us = merged.quantile_us(0.99);
  // Per-shard live session counts come from the registry, not the engine,
  // so they are consistent with the eviction flags above.
  {
    const std::shared_lock lock(registry_mu_);
    for (const auto& info : registry_) {
      if (!info.evicted) ++out.per_shard[info.shard].sessions;
    }
  }
  return out;
}

std::vector<ShardBaselines> ShardedFleet::baselines() const {
  std::vector<ShardBaselines> out;
  if (!options_.baseline.adaptive) return out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardBaselines sb;
    sb.shard = i;
    {
      const std::scoped_lock lock(shard.view_mu);
      sb.entries = shard.view.baselines;
    }
    out.push_back(std::move(sb));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checkpointing

std::string ShardedFleet::shard_checkpoint_filename(std::size_t shard) {
  return "fleet." + std::to_string(shard) + ".nckp";
}

void ShardedFleet::checkpoint_all() const {
  if (options_.checkpoint_dir.empty()) {
    throw std::logic_error(
        "ShardedFleet::checkpoint_all: no checkpoint_dir configured");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const std::scoped_lock lock(shard.mu);
    checkpoint_shard(i, shard, /*polled=*/false, /*durable=*/true);
    publish(shard, {});
  }
}

std::unique_ptr<ShardedFleet> ShardedFleet::restore(
    const std::string& dir, ShardedFleetOptions options) {
  // Build the fleet *without* live queues first: restore each shard's
  // engine, then derive the registry, then start the workers.
  auto fleet = std::unique_ptr<ShardedFleet>(new ShardedFleet(
      std::move(options), /*restore_from=*/dir));
  return fleet;
}

ShardedFleet::ShardedFleet(ShardedFleetOptions options,
                           const std::string& restore_dir)
    : options_(with_shards(std::move(options))) {
  const std::size_t S = options_.shards;
  shards_.reserve(S);
  for (std::size_t i = 0; i < S; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<MonitorEngine>(MonitorEngine::restore(
        restore_dir + "/" + shard_checkpoint_filename(i), engine_options(i)));
    shards_.push_back(std::move(shard));
  }
  // Rebuild the global registry from the round-robin invariant: session g
  // lives on shard g % S at local index g / S.  Any set of shard files no
  // id sequence could have produced is rejected.
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->engine->sessions();
  registry_.reserve(total);
  for (std::size_t g = 0; g < total; ++g) {
    const std::size_t si = g % S;
    const std::size_t local = g / S;
    Shard& shard = *shards_[si];
    if (local >= shard.engine->sessions()) {
      throw CheckpointError(
          CheckpointErrorKind::kMismatch,
          "ShardedFleet::restore: shard " + std::to_string(si) +
              " holds " + std::to_string(shard.engine->sessions()) +
              " sessions, inconsistent with a fleet of " +
              std::to_string(total));
    }
    const SessionSnapshot snap = shard.engine->snapshot(local);
    SessionInfo info;
    info.shard = si;
    info.local = local;
    info.name = snap.name;
    info.evicted = snap.evicted;
    info.channels.reserve(snap.channels.size());
    for (const auto& c : snap.channels) {
      info.channels.push_back({c.name, c.width});
    }
    registry_.push_back(std::move(info));
  }
  start_workers();
}

}  // namespace nsync::engine
