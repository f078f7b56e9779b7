#include "fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "daemon.hpp"
#include "engine/wire_client.hpp"
#include "host_speed.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"

#if BENCH_E2E_TRACED
#include "replay.hpp"
#endif

#ifndef NSYNC_FLEET_DAEMON
#error "NSYNC_FLEET_DAEMON must name the fleet_daemon executable"
#endif

namespace bench {

namespace fs = std::filesystem;
namespace wire = nsync::engine::wire;
using Clock = std::chrono::steady_clock;
using nsync::engine::SessionSnapshot;
using nsync::engine::WireClient;
using nsync::eval::PrinterKind;
using nsync::sensors::SideChannel;
using nsync::signal::SignalView;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// --- Coverage: when did each FEED's frames become visible? ---------------

/// Per channel, the FEEDs whose frames the daemon has not yet shown as
/// processed.  Feeders register a FEED before sending it; every
/// POLL_STATS(include_sessions=1) reply pops the FEEDs its frames_fed
/// covers and records their latency from `origin` (due time or send time).
class Coverage {
 public:
  Coverage(std::size_t max_sessions, std::size_t channels)
      : channels_(channels), queues_(max_sessions * channels) {}

  void expect(std::uint64_t session, std::size_t channel, std::uint64_t end,
              Clock::time_point origin, bool measured) {
    Queue& q = queue(session, channel);
    const std::scoped_lock lock(q.mu);
    q.pending.push_back({end, origin, measured});
    outstanding_.fetch_add(1);
    if (measured) measured_outstanding_.fetch_add(1);
  }

  void observe(const wire::Stats& stats, Clock::time_point at) {
    std::vector<double> local;
    const std::size_t n =
        std::min(stats.sessions_detail.size(), queues_.size() / channels_);
    for (std::size_t s = 0; s < n; ++s) {
      const auto& chans = stats.sessions_detail[s].channels;
      for (std::size_t c = 0; c < chans.size() && c < channels_; ++c) {
        Queue& q = queues_[s * channels_ + c];
        const std::scoped_lock lock(q.mu);
        while (q.head < q.pending.size() &&
               q.pending[q.head].end <= chans[c].frames_fed) {
          const Pending& p = q.pending[q.head++];
          outstanding_.fetch_sub(1);
          if (p.measured) {
            local.push_back(ms_between(p.origin, at));
            measured_outstanding_.fetch_sub(1);
          }
        }
      }
    }
    if (!local.empty()) {
      const std::scoped_lock lock(mu_);
      latencies_ms_.insert(latencies_ms_.end(), local.begin(), local.end());
    }
  }

  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_.load(); }
  [[nodiscard]] std::uint64_t measured_outstanding() const {
    return measured_outstanding_.load();
  }
  [[nodiscard]] std::size_t max_sessions() const {
    return queues_.size() / channels_;
  }
  [[nodiscard]] std::vector<double> latencies_ms() const {
    const std::scoped_lock lock(mu_);
    return latencies_ms_;
  }

 private:
  struct Pending {
    std::uint64_t end;
    Clock::time_point origin;
    bool measured;
  };
  struct Queue {
    std::mutex mu;
    std::vector<Pending> pending;
    std::size_t head = 0;
  };

  Queue& queue(std::uint64_t session, std::size_t channel) {
    if (session >= max_sessions()) {
      throw std::runtime_error("coverage: session id beyond capacity");
    }
    return queues_[session * channels_ + channel];
  }

  std::size_t channels_;
  std::vector<Queue> queues_;
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<std::uint64_t> measured_outstanding_{0};
  mutable std::mutex mu_;
  std::vector<double> latencies_ms_;
};

// --- Run state shared by the feeders and the probe -------------------------

struct Timeline {
  Clock::time_point start;  ///< load starts (warm-up begins)
  Clock::time_point phase;  ///< measured phase begins
  Clock::time_point end;    ///< measured phase ends; feeders stop
};

bool in_phase(const Timeline& t, Clock::time_point at) {
  return at >= t.phase && at < t.end;
}

/// A print the churn loop finished: its final POLL_STATS view, read once
/// every frame was verdicted, before EVICT.
struct Completed {
  Printer printer;
  wire::StatsSession final;
};

struct FeederStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t phase_feeds = 0;
  double phase_channel_s = 0.0;
  std::uint64_t frames_sent = 0;
  std::uint64_t prints_in_phase = 0;
  std::vector<double> admit_ms;  ///< ADD_SESSION round trips in the phase
  std::vector<std::string> errors;
  /// Open/closed loop: frames sent per printer and channel.
  std::map<std::size_t, std::vector<std::size_t>> sent;
  std::vector<Completed> completed;  ///< churn

  void error(const std::string& what) {
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
};

struct Shared {
  Shared(const FleetData& d, std::size_t max_sessions, std::size_t channels)
      : data(d), coverage(max_sessions, channels) {}

  const FleetData& data;
  Timeline t;
  Coverage coverage;
  std::atomic<int> feeders_stopped{0};  ///< feeders past the phase end
  std::atomic<int> feeders_done{0};     ///< feeder threads finished
  std::atomic<bool> phase_closed{false};
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> next_request{1};

  /// The probe's latest view of one session (churn slots wait on it).
  std::optional<wire::StatsSession> view(std::uint64_t session) const {
    const std::scoped_lock lock(latest_mu);
    if (session >= latest.sessions_detail.size()) return std::nullopt;
    return latest.sessions_detail[session];
  }
  void publish(const wire::Stats& stats) {
    const std::scoped_lock lock(latest_mu);
    latest = stats;
  }

 private:
  mutable std::mutex latest_mu;
  wire::Stats latest;
};

/// Request id of a client span; the untraced run does not count them.
std::uint64_t request_id(Shared& sh) {
  if constexpr (kTraced) return sh.next_request++;
  return 0;
}

std::vector<std::size_t> feed_blocks(const FleetData& d, const Printer& p) {
  return block_frames(d.kinds[p.kind], d.plan.block_s);
}

/// Sends one FEED and accounts it.  Returns false on failure.
bool send_feed(Shared& sh, WireClient& client, FeederStats& st,
               std::uint64_t session, const std::string& channel,
               std::size_t channel_index, const Signal& stream, std::size_t lo,
               std::size_t hi, Clock::time_point origin, bool measured,
               std::uint64_t parent) {
  sh.coverage.expect(session, channel_index, hi, origin, measured);
  ++st.attempted;
  try {
    const SpanScope span("client.feed", parent, request_id(sh));
    const wire::FeedOk ok =
        client.feed(session, channel, SignalView(stream).slice(lo, hi));
    if (ok.accepted_frames != hi - lo || ok.shed_frames != 0) {
      st.error("FEED accepted " + std::to_string(ok.accepted_frames) + " of " +
               std::to_string(hi - lo) + " frames, shed " +
               std::to_string(ok.shed_frames));
      return false;
    }
  } catch (const std::exception& e) {
    st.error(std::string("FEED: ") + e.what());
    return false;
  }
  st.frames_sent += hi - lo;
  if (measured) {
    ++st.phase_feeds;
    st.phase_channel_s +=
        static_cast<double>(hi - lo) / stream.sample_rate();
  }
  return true;
}

// --- Feeder loops ----------------------------------------------------------

struct Assigned {
  std::size_t index;  ///< printer index in data.initial
  std::uint64_t session;
};

/// Open loop: every printer sends one FEED per channel per block of
/// signal, due on a fixed schedule compressed by plan.compression and
/// staggered by printer; a late send is sent at once, never skipped.
void open_loop(Shared& sh, WireClient& client, const std::vector<Assigned>& mine,
               FeederStats& st) {
  const FleetData& d = sh.data;
  const double tick_wall = d.plan.block_s / d.plan.compression;
  std::vector<std::uint64_t> ticks(mine.size(), 0);  // next tick per printer
  for (const Assigned& a : mine) {
    st.sent[a.index].assign(d.kinds[d.initial[a.index].kind].names.size(), 0);
  }
  const auto due_of = [&](std::size_t i) {
    return sh.t.start +
           seconds((static_cast<double>(ticks[i]) + d.initial[mine[i].index].offset) *
                   tick_wall);
  };
  while (!sh.abort) {
    std::size_t i = 0;
    for (std::size_t j = 1; j < mine.size(); ++j) {
      if (due_of(j) < due_of(i)) i = j;
    }
    const auto due = due_of(i);
    if (due >= sh.t.end) return;
    std::this_thread::sleep_until(due);
    { const SpanScope late("gen.late", due, 0, 0); }
    const Assigned& a = mine[i];
    const Printer& p = d.initial[a.index];
    const bool measured = due >= sh.t.phase;
    const std::vector<std::size_t> block = feed_blocks(d, p);
    const auto& streams = p.streams(d.kinds);
    const SpanScope tick("gen.tick", 0, 0);
    for (std::size_t c = 0; c < streams.size(); ++c) {
      const std::size_t lo = ticks[i] * block[c];
      const std::size_t hi = std::min(lo + block[c], streams[c].frames());
      if (lo >= hi) {
        st.error("print " + p.name + " ran out of signal");
        sh.abort = true;
        return;
      }
      if (!send_feed(sh, client, st, a.session, d.kinds[p.kind].names[c], c,
                     streams[c], lo, hi, due, measured, tick.id())) {
        sh.abort = true;
        return;
      }
      st.sent[a.index][c] = hi;
    }
    ++ticks[i];
  }
}

/// Closed loop: round-robin over the connection's printers, each FEED sent
/// as soon as the previous reply returns, until the phase ends or every
/// print has been streamed to completion.
void closed_loop(Shared& sh, WireClient& client, const std::vector<Assigned>& mine,
                 FeederStats& st) {
  const FleetData& d = sh.data;
  for (const Assigned& a : mine) {
    st.sent[a.index].assign(d.kinds[d.initial[a.index].kind].names.size(), 0);
  }
  for (bool any = true; any && !sh.abort;) {
    any = false;
    for (const Assigned& a : mine) {
      if (Clock::now() >= sh.t.end) return;
      const Printer& p = d.initial[a.index];
      const auto& streams = p.streams(d.kinds);
      const std::vector<std::size_t> block = feed_blocks(d, p);
      std::vector<std::size_t>& cursor = st.sent[a.index];
      for (std::size_t c = 0; c < streams.size(); ++c) {
        const std::size_t lo = cursor[c];
        const std::size_t hi = std::min(lo + block[c], streams[c].frames());
        if (lo >= hi) continue;
        any = true;
        const auto now = Clock::now();
        if (!send_feed(sh, client, st, a.session, d.kinds[p.kind].names[c], c,
                       streams[c], lo, hi, now, in_phase(sh.t, now), 0)) {
          sh.abort = true;
          return;
        }
        cursor[c] = hi;
      }
    }
  }
}

/// Churn: the connection keeps its prints in flight.  Each
/// print runs ADD_SESSION -> FEED blocks -> (POLL_STATS until every frame
/// is verdicted) -> EVICT, then the slot admits the next print.  The
/// POLL_STATS are the probe's: a slot whose print is fed waits, without
/// blocking the connection, until a probe reply shows every frame
/// processed.  Slots take turns one request batch at a time.  At the phase
/// end no new print is admitted; the prints in flight are finished once
/// the probe has closed the phase.
void churn_loop(Shared& sh, WireClient& client, const std::vector<Assigned>& initial,
                std::size_t feeder, FeederStats& st) {
  const FleetData& d = sh.data;
  enum class State { kFeed, kVerdict, kIdle };
  struct Slot {
    Printer printer;
    std::uint64_t session = 0;
    std::size_t block = 0;  ///< next FEED block
    State state = State::kFeed;
  };
  std::vector<Slot> slots;
  for (const Assigned& a : initial) {
    slots.push_back({d.initial[a.index], a.session, 0, State::kFeed});
  }
  std::size_t next_print = d.initial.size() + feeder;
  bool stopped = false;

  const auto admit = [&](Slot& slot) -> bool {
    Printer p = d.churn_print(next_print);
    next_print += kFeeders;
    const auto t0 = Clock::now();
    ++st.attempted;
    try {
      const SpanScope span("client.add_session", 0, request_id(sh));
      const wire::AddSessionOk ok = client.add_session(
          make_spec(d.kinds[p.kind], p.name, p.model, p.policy));
      slot = {std::move(p), ok.session, 0, State::kFeed};
    } catch (const std::exception& e) {
      st.error(std::string("ADD_SESSION: ") + e.what());
      return false;
    }
    if (in_phase(sh.t, t0)) st.admit_ms.push_back(ms_between(t0, Clock::now()));
    return true;
  };

  // One step of a slot; false when it had nothing to do yet.
  const auto step = [&](Slot& slot) -> bool {
    const auto& streams = slot.printer.streams(d.kinds);
    if (slot.state == State::kFeed) {
      const std::vector<std::size_t> block = feed_blocks(d, slot.printer);
      bool more = false;
      for (std::size_t c = 0; c < streams.size(); ++c) {
        const std::size_t lo = slot.block * block[c];
        const std::size_t hi = std::min(lo + block[c], streams[c].frames());
        if (lo >= hi) continue;
        const auto now = Clock::now();
        if (!send_feed(sh, client, st, slot.session,
                       d.kinds[slot.printer.kind].names[c], c, streams[c], lo,
                       hi, now, in_phase(sh.t, now), 0)) {
          sh.abort = true;
          return true;
        }
        more = more || hi < streams[c].frames();
      }
      ++slot.block;
      if (!more) slot.state = State::kVerdict;
      return true;
    }
    const std::optional<wire::StatsSession> view = sh.view(slot.session);
    bool done = view && view->channels.size() == streams.size();
    for (std::size_t c = 0; done && c < streams.size(); ++c) {
      done = view->channels[c].frames_fed == streams[c].frames();
    }
    if (!done) return false;
    ++st.attempted;
    try {
      const SpanScope span("client.evict", 0, request_id(sh));
      client.evict(slot.session);
    } catch (const std::exception& e) {
      st.error(std::string("EVICT: ") + e.what());
      sh.abort = true;
      return true;
    }
    if (in_phase(sh.t, Clock::now())) ++st.prints_in_phase;
    st.completed.push_back({slot.printer, *view});
    if (stopped || !admit(slot)) slot.state = State::kIdle;
    return true;
  };

  while (!sh.abort) {
    if (!stopped && Clock::now() >= sh.t.end) {
      stopped = true;
      sh.feeders_stopped.fetch_add(1);
      while (!sh.phase_closed && !sh.abort) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    bool busy = false;
    bool progressed = false;
    for (Slot& slot : slots) {
      if (slot.state == State::kIdle || sh.abort) continue;
      busy = true;
      progressed = step(slot) || progressed;
    }
    if (!busy) break;
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Reference verdicts ----------------------------------------------------

/// One distinct print x fusion policy, and the per-channel prefixes at
/// which the daemon's view of it must be compared.
struct RefJob {
  const KindData* kind = nullptr;
  const std::vector<Signal>* print = nullptr;
  std::shared_ptr<const nsync::core::FusionPolicy> policy;
  std::vector<std::size_t> block;
  std::set<std::vector<std::size_t>> prefixes;
  std::map<std::vector<std::size_t>, SessionSnapshot> snapshots;
};

/// Feeds the print into an in-process MonitorEngine in the same FEED
/// order the feeders used, and snapshots it at every requested prefix.
void compute_reference(RefJob& job) {
  nsync::engine::MonitorEngine engine;
  engine.add_session(make_spec(*job.kind, "reference", "", job.policy));
  const auto& streams = *job.print;
  std::vector<std::size_t> cursor(streams.size(), 0);
  const auto check = [&] {
    if (job.prefixes.count(cursor) != 0) {
      engine.poll_session(0);
      job.snapshots[cursor] = engine.snapshot(0);
    }
  };
  check();
  for (std::size_t k = 0; job.snapshots.size() < job.prefixes.size(); ++k) {
    bool more = false;
    for (std::size_t c = 0; c < streams.size(); ++c) {
      const std::size_t lo = k * job.block[c];
      const std::size_t hi = std::min(lo + job.block[c], streams[c].frames());
      if (lo >= hi) continue;
      more = true;
      engine.feed(0, job.kind->names[c], SignalView(streams[c]).slice(lo, hi));
      engine.poll_session(0);
      cursor[c] = hi;
      check();
    }
    if (!more) break;
  }
}

/// Compares the daemon's view of a session with the reference's; returns
/// an empty string when they agree.  `coarse` is set when the fused
/// first_alarm_window is one a coarser drain legitimately yields.
std::string compare_session(const wire::StatsSession& got,
                            const SessionSnapshot& want, bool& coarse) {
  const auto diff = [](const std::string& what, auto a, auto b) {
    return what + " " + std::to_string(a) + " != reference " +
           std::to_string(b);
  };
  if ((got.intrusion != 0) != want.intrusion) {
    return diff("intrusion", got.intrusion, want.intrusion ? 1 : 0);
  }
  coarse = false;
  if (got.first_alarm_window != want.first_alarm_window) {
    // The fused verdict latches at the first drain after which the policy
    // fires, with the earliest first_alarm_window among the channels
    // alarming then.  The reference drains after every FEED; a daemon
    // shard drains whatever batches it popped together, so a second
    // channel whose (earlier-indexed) alarm arrives in the same drain can
    // lower the fused value.  Accept exactly that: an alarming channel's
    // own first_alarm_window below the reference's fused one.
    for (const auto& c : want.channels) {
      coarse = coarse || (c.detection.intrusion &&
                          c.detection.first_alarm_window == got.first_alarm_window &&
                          got.first_alarm_window < want.first_alarm_window);
    }
    if (!coarse) {
      return diff("first_alarm_window", got.first_alarm_window,
                  want.first_alarm_window);
    }
  }
  if (got.channels.size() != want.channels.size()) return "channel count";
  for (std::size_t c = 0; c < got.channels.size(); ++c) {
    const auto& g = got.channels[c];
    const auto& w = want.channels[c];
    const std::string name = g.name + ".";
    if (g.windows != w.windows) return diff(name + "windows", g.windows, w.windows);
    if ((g.alarm != 0) != w.detection.intrusion) {
      return diff(name + "alarm", g.alarm, w.detection.intrusion ? 1 : 0);
    }
    if (!bits_equal(g.score, w.score)) return diff(name + "score", g.score, w.score);
    if (g.frames_fed != w.frames_fed) {
      return diff(name + "frames_fed", g.frames_fed, w.frames_fed);
    }
  }
  return {};
}

struct RefKey {
  std::size_t kind;
  bool attacked;
  std::size_t pool;
  const nsync::core::FusionPolicy* policy;
  auto operator<=>(const RefKey&) const = default;
};

/// Checks every (printer, daemon view, fed prefix) against the in-process
/// reference; each distinct print x policy is replayed once, off the clock.
void check_verdicts(
    const FleetData& d,
    const std::vector<std::tuple<Printer, wire::StatsSession,
                                 std::vector<std::size_t>>>& views,
    RunResult& r) {
  std::map<RefKey, std::size_t> index;
  std::vector<RefJob> jobs;
  std::vector<std::size_t> job_of;
  for (const auto& [p, view, prefix] : views) {
    const RefKey key{p.kind, p.attacked, p.pool, p.policy.get()};
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, jobs.size()).first;
      RefJob job;
      job.kind = &d.kinds[p.kind];
      job.print = &p.streams(d.kinds);
      job.policy = p.policy;
      job.block = feed_blocks(d, p);
      jobs.push_back(std::move(job));
    }
    jobs[it->second].prefixes.insert(prefix);
    job_of.push_back(it->second);
  }
  nsync::runtime::parallel_for(0, jobs.size(),
                               [&](std::size_t i) { compute_reference(jobs[i]); });
  std::size_t mismatches = 0;
  std::size_t coarse_latches = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& [p, view, prefix] = views[i];
    const RefJob& job = jobs[job_of[i]];
    const auto snap = job.snapshots.find(prefix);
    bool coarse = false;
    const std::string why =
        snap == job.snapshots.end()
            ? std::string("prefix never reached by the reference")
            : compare_session(view, snap->second, coarse);
    if (coarse) ++coarse_latches;
    if (!why.empty()) {
      ++mismatches;
      r.fail("verdict mismatch on " + p.name + ": " + why);
    }
  }
  r.notes["verdicts_checked"] = views.size();
  r.notes["verdict_mismatches"] = mismatches;
  r.notes["fused_alarm_window_from_coarser_drain"] = coarse_latches;
  r.notes["reference_replays"] = jobs.size();
}

// --- Set-up ----------------------------------------------------------------

struct Paths {
  std::string socket;
  std::string checkpoint;
  std::string baseline;
};

Paths make_paths(const RunOptions& opt) {
  fs::create_directories(opt.work_dir);
  Paths p;
  // A relative socket path keeps sun_path short wherever the checkout is;
  // the daemon inherits this process's working directory.
  p.socket = fs::path(opt.work_dir).lexically_proximate(fs::current_path()) /
             "fleet.sock";
  if (p.socket.size() > 100) {
    throw std::runtime_error("socket path too long: " + p.socket);
  }
  p.checkpoint = (fs::path(opt.work_dir) / "checkpoint").string();
  p.baseline = (fs::path(opt.work_dir) / "baseline").string();
  return p;
}

WireClient connect(const Paths& paths) {
  nsync::engine::WireClientOptions o;
  o.connect_timeout_ms = 10000;
  o.io_timeout_ms = 60000;
  WireClient c = WireClient::connect_uds(paths.socket, o);
  c.hello("bench_e2e");
  return c;
}

std::vector<std::string> daemon_args(const FleetPlan& plan, const Paths& paths) {
  std::vector<std::string> args = {"--listen", paths.socket, "--shards",
                                   std::to_string(kDaemonShards), "--policy",
                                   "block"};
  if (plan.durable) {
    args.insert(args.end(), {"--checkpoint", paths.checkpoint, "--baseline-dir",
                             paths.baseline});
  }
  return args;
}

#if BENCH_E2E_TRACED
/// The traced run's layer replay input: a bounded slice of the workload's
/// own sessions and streams.
ReplayInput make_replay_input(const FleetData& d, const RunOptions& opt) {
  ReplayInput in;
  in.fleet.shards = kDaemonShards;
  in.fleet.overflow = nsync::engine::OverflowPolicy::kBlock;
  in.scratch_dir = (fs::path(opt.work_dir) / "replay").string();
  if (d.plan.durable) {
    in.fleet.checkpoint_dir = in.scratch_dir + "/checkpoint";
    in.fleet.checkpoint_every_polls = 1;
    in.fleet.baseline.adaptive = true;
    in.fleet.baseline.dir = in.scratch_dir + "/baseline";
  }
  const std::size_t max_sessions = opt.smoke ? 2 : 8;
  const double seconds_cap = opt.smoke ? 4.0 : 20.0;
  std::vector<Printer> printers = d.initial;
  for (std::size_t n = d.initial.size();
       d.plan.mode == LoadMode::kChurn && printers.size() < max_sessions; ++n) {
    printers.push_back(d.churn_print(n));
  }
  // An equal share of the slice per printer kind.
  std::vector<Printer> chosen;
  std::vector<std::size_t> taken(d.kinds.size(), 0);
  for (const Printer& p : printers) {
    if (taken[p.kind] < max_sessions / d.kinds.size()) {
      chosen.push_back(p);
      ++taken[p.kind];
    }
  }
  for (const Printer& p : chosen) {
    ReplaySession s;
    s.kind = &d.kinds[p.kind];
    s.spec = make_spec(d.kinds[p.kind], p.name, p.model, p.policy);
    s.block = feed_blocks(d, p);
    for (const Signal& stream : p.streams(d.kinds)) {
      const auto frames = std::min<std::size_t>(
          stream.frames(),
          static_cast<std::size_t>(seconds_cap * stream.sample_rate()));
      s.streams.push_back(SignalView(stream).slice(0, frames));
    }
    in.sessions.push_back(std::move(s));
  }
  in.fit_seconds = seconds_cap;
  return in;
}
#endif

}  // namespace

const std::vector<Signal>& Printer::streams(
    const std::vector<KindData>& kinds) const {
  const KindData& k = kinds[kind];
  return attacked ? k.attacked[pool] : k.benign[pool];
}

Printer FleetData::churn_print(std::size_t n) const {
  const KindData& k = kinds.front();
  Printer p;
  p.kind = 0;
  p.attacked = n % 8 == 7;
  p.pool = p.attacked ? (n / 8) % k.attacked.size() : n % k.benign.size();
  p.name = "print-" + std::to_string(n);
  // A model key of its own per print: admission resolves and eviction
  // folds through the baseline registry, yet no print's thresholds depend
  // on the order in which the two connections' prints finished, so every
  // verdict stays checkable against an in-process reference.
  p.model = "rm3-" + std::to_string(n);
  return p;
}

bool is_fleet_workload(const std::string& name) {
  return name == "farm_realtime" || name == "farm_saturate" ||
         name == "print_churn";
}

FleetData make_fleet_data(const std::string& workload, const RunOptions& opt) {
  FleetData d;
  d.plan.workload = workload;
  const bool smoke = opt.smoke;
  const auto layers_for = [](double seconds) {
    // ~9.4 s of signal per layer on RM3 and ~11.5 s on UM3 (quick-scale
    // gear); size by the shorter one and add a layer of margin.
    return static_cast<std::size_t>(std::ceil(seconds / 9.0)) + 1;
  };
  if (workload == "farm_realtime") {
    FleetPlan& plan = d.plan;
    plan.mode = LoadMode::kOpenLoop;
    plan.block_s = 0.25;
    plan.compression = 4.0;
    plan.warmup_s = smoke ? 0.5 : 2.0;
    const std::size_t per_kind = smoke ? 4 : 16;
    // Every print outlasts warm-up plus phase at this compression, so no
    // admission happens during the phase.
    const double need_s =
        (plan.warmup_s + opt.phase_s) * plan.compression + 2.0 * plan.block_s;
    for (const PrinterKind kind : {PrinterKind::kUm3, PrinterKind::kRm3}) {
      KindRequest req{kind, {SideChannel::kAcc, SideChannel::kAud}};
      req.layers = layers_for(need_s);
      req.train = smoke ? 2 : 4;
      req.benign = smoke ? 2 : 8;
      d.kinds.push_back(build_kind(req, opt.seed));
      if (d.kinds.back().min_duration_s() < need_s) {
        throw std::runtime_error("farm_realtime: simulated prints are shorter "
                                 "than warm-up plus phase");
      }
    }
    for (std::size_t k = 0; k < d.kinds.size(); ++k) {
      std::size_t benign = 0;
      std::size_t attacked = 0;
      for (std::size_t i = 0; i < per_kind; ++i) {
        Printer p;
        p.kind = k;
        p.attacked = i % 8 == 7 || (smoke && i + 1 == per_kind);
        // Void and InfillGrid: the other attacks shorten or stretch the
        // print, and every print must outlast the run.
        p.pool = p.attacked ? attacked++ % 2 : benign++ % d.kinds[k].benign.size();
        // Half the printers fuse with the client-fitted WeightedPolicy,
        // half with majority voting; printers streaming the same pool print
        // share the policy so its reference verdict is computed once.
        p.policy = p.pool % 2 == 0
                       ? d.kinds[k].weighted
                       : std::make_shared<nsync::core::VotingPolicy>(
                             nsync::core::FusionRule::kMajority);
        p.name = nsync::eval::printer_name(d.kinds[k].kind) + "-" +
                 std::to_string(i);
        d.initial.push_back(std::move(p));
      }
    }
    // A farm's prints started at different times, so their DWM windows
    // complete at different times.  Stagger the printers' schedules over
    // one hop of the slowest-hopping channel; in phase, every printer's
    // windows would complete in the same tick, one burst per hop.
    double hop_ticks = 1.0;
    for (const KindData& k : d.kinds) {
      for (std::size_t c = 0; c < k.configs.size(); ++c) {
        const double hop_s = static_cast<double>(k.configs[c].dwm.n_hop) /
                             k.references[c].sample_rate();
        hop_ticks = std::max(hop_ticks, hop_s / plan.block_s);
      }
    }
    // Kinds interleave, so each kind's printers span the whole hop.
    for (std::size_t i = 0; i < d.initial.size(); ++i) {
      const std::size_t slot = (i % per_kind) * d.kinds.size() + i / per_kind;
      d.initial[i].offset = hop_ticks * static_cast<double>(slot) /
                            static_cast<double>(d.initial.size());
    }
  } else if (workload == "farm_saturate") {
    FleetPlan& plan = d.plan;
    plan.mode = LoadMode::kClosedLoop;
    plan.block_s = 0.02;
    plan.warmup_s = smoke ? 0.5 : 1.0;
    const std::size_t printers = smoke ? 16 : 128;
    KindRequest req{PrinterKind::kRm3, {SideChannel::kMag, SideChannel::kAcc}};
    // Fixed work: every print is streamed once.  The prints are sized so
    // the work outlasts warm-up plus phase at ~1024 printer-seconds of
    // signal per wall second (1.25x the rate measured at calibration); a
    // faster fleet finishes early, and its throughput is timed over the
    // work actually done.
    req.layers = layers_for((plan.warmup_s + opt.phase_s) * 1024.0 /
                            static_cast<double>(printers));
    req.train = smoke ? 2 : 4;
    req.benign = smoke ? 3 : 14;
    d.kinds.push_back(build_kind(req, opt.seed));
    std::size_t benign = 0;
    std::size_t attacked = 0;
    for (std::size_t i = 0; i < printers; ++i) {
      Printer p;
      p.attacked = i % 8 == 7;
      p.pool = p.attacked ? attacked++ % d.kinds[0].attacked.size()
                          : benign++ % d.kinds[0].benign.size();
      p.name = "rm3-" + std::to_string(i);
      d.initial.push_back(std::move(p));
    }
  } else if (workload == "print_churn") {
    FleetPlan& plan = d.plan;
    plan.mode = LoadMode::kChurn;
    plan.block_s = 1.0;
    plan.warmup_s = smoke ? 0.5 : 2.0;
    plan.durable = true;
    constexpr std::size_t kPrintsPerConnection = 2;
    KindRequest req{PrinterKind::kRm3,
                    {SideChannel::kMag, SideChannel::kAcc, SideChannel::kAud}};
    req.layers = smoke ? 1 : 2;
    req.train = smoke ? 2 : 4;
    req.benign = smoke ? 3 : 7;
    d.kinds.push_back(build_kind(req, opt.seed));
    for (std::size_t n = 0; n < kFeeders * kPrintsPerConnection; ++n) {
      d.initial.push_back(d.churn_print(n));
    }
  } else {
    throw std::invalid_argument("not a fleet workload: " + workload);
  }
  return d;
}

RunResult run_fleet(const FleetData& d, const RunOptions& opt) {
  RunResult r;
  r.workload = d.plan.workload;
  r.seed = opt.seed;
  const Paths paths = make_paths(opt);

  // --- Set-up, kSetupRepeats times; the last daemon serves the load. -------
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<WireClient> feeders;
  std::vector<std::uint64_t> ids(d.initial.size(), 0);
  std::vector<double> setup_s;
  std::vector<pid_t> listen_tasks;
  ProcSample at_listen;
  ProcSample at_admitted;
  HostSpeed host;  // sampled on this thread only
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    feeders.clear();
    if (daemon) daemon->stop();
    daemon.reset();
    fs::remove_all(paths.checkpoint);
    fs::remove_all(paths.baseline);
    for (int i = 0; i < kHostSamplesPerSetup; ++i) host.sample();
    const auto t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(NSYNC_FLEET_DAEMON,
                                             daemon_args(d.plan, paths));
    daemon->wait_listening(std::chrono::seconds(60));
    // The task list at the listening line is main, the shard workers and
    // the accept thread; every later task is a connection thread.
    listen_tasks = list_tasks(daemon->pid());
    at_listen = sample_proc(daemon->pid());
    for (std::size_t f = 0; f < kFeeders; ++f) feeders.push_back(connect(paths));
    // Sequential admission in printer order makes the session -> shard
    // mapping (id % shards) the same on every run.
    for (std::size_t i = 0; i < d.initial.size(); ++i) {
      const Printer& p = d.initial[i];
      ids[i] = feeders[i % kFeeders]
                   .add_session(make_spec(d.kinds[p.kind], p.name, p.model,
                                          p.policy))
                   .session;
      r.attempted++;
      if (ids[i] != i) r.fail("ADD_SESSION returned id " + std::to_string(ids[i]));
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    at_admitted = sample_proc(daemon->pid());
  }
  WireClient probe = connect(paths);

  // --- Load: warm-up, measured phase, drain. -------------------------------
  nsync::runtime::set_worker_count(1);  // no idle pool threads during load
  const std::size_t channels = d.kinds.front().names.size();
  const std::size_t max_sessions =
      d.plan.mode == LoadMode::kChurn ? 16384 : d.initial.size();
  Shared sh(d, max_sessions, channels);
  sh.t.start = Clock::now() + std::chrono::milliseconds(20);
  sh.t.phase = sh.t.start + seconds(d.plan.warmup_s);
  sh.t.end = sh.t.phase + seconds(opt.phase_s);

  std::vector<FeederStats> fstats(kFeeders);
  std::vector<std::thread> threads;
  for (std::size_t f = 0; f < kFeeders; ++f) {
    std::vector<Assigned> mine;
    for (std::size_t i = f; i < d.initial.size(); i += kFeeders) {
      mine.push_back({i, ids[i]});
    }
    threads.emplace_back([&, f, mine = std::move(mine)] {
      std::this_thread::sleep_until(sh.t.start);
      try {
        switch (d.plan.mode) {
          case LoadMode::kOpenLoop: open_loop(sh, feeders[f], mine, fstats[f]); break;
          case LoadMode::kClosedLoop: closed_loop(sh, feeders[f], mine, fstats[f]); break;
          case LoadMode::kChurn:
            churn_loop(sh, feeders[f], mine, f, fstats[f]);
            break;
        }
      } catch (const std::exception& e) {
        fstats[f].error(std::string("feeder: ") + e.what());
        sh.abort = true;
      }
      if (d.plan.mode != LoadMode::kChurn) sh.feeders_stopped.fetch_add(1);
      sh.feeders_done.fetch_add(1);
    });
  }

  // The probe: POLL_STATS(include_sessions=1) every kProbePeriodMs on its
  // own connection, from this thread, until every feeder is done.  It also
  // samples /proc at the phase edges and closes the phase once every frame
  // sent in it is visible.
  std::vector<double> stats_ms;
  std::uint64_t probe_attempted = 0;
  std::uint64_t probe_failed = 0;
  std::optional<ProcSample> proc_start;
  ProcSample proc_end;
  wire::Stats stats_start;
  wire::Stats stats_end;
  Clock::time_point closed_at{};
  double stats_max_ms = 0.0;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kProbePeriodMs));
  const auto hard_deadline = sh.t.end + std::chrono::seconds(60);
  const auto host_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kHostSamplePeriodMs));
  auto next = sh.t.start;
  auto next_host = sh.t.start;
  while (!sh.abort) {
    if (Clock::now() >= next_host) {
      host.sample();
      next_host = Clock::now() + host_period;
    }
    std::this_thread::sleep_until(next);
    next = std::max(next + period, Clock::now());
    const auto t_send = Clock::now();
    wire::Stats stats;
    ++probe_attempted;
    // Any failure here (the daemon gone, /proc unreadable) ends the load;
    // the feeders are joined below either way.
    try {
      {
        const SpanScope span("client.poll_stats", 0, request_id(sh));
        stats = probe.poll_stats(true);
      }
      if (!proc_start && t_send >= sh.t.phase) {
        proc_start = sample_proc(daemon->pid());
        stats_start = stats;
      }
    } catch (const std::exception& e) {
      ++probe_failed;
      r.fail(std::string("probe: ") + e.what());
      sh.abort = true;
      break;
    }
    const auto t_recv = Clock::now();
    sh.coverage.observe(stats, t_recv);
    if (d.plan.mode == LoadMode::kChurn) sh.publish(stats);
    if (in_phase(sh.t, t_send)) {
      stats_ms.push_back(ms_between(t_send, t_recv));
      stats_max_ms = std::max(stats_max_ms, stats_ms.back());
    }
    if (!sh.phase_closed && proc_start &&
        sh.feeders_stopped.load() == static_cast<int>(kFeeders) &&
        sh.coverage.measured_outstanding() == 0) {
      closed_at = t_recv;
      stats_end = stats;
      try {
        proc_end = sample_proc(daemon->pid());
      } catch (const std::exception& e) {
        r.fail(std::string("probe: ") + e.what());
        sh.abort = true;
      }
      sh.phase_closed = true;
    }
    if (sh.phase_closed && sh.feeders_done.load() == static_cast<int>(kFeeders)) {
      break;
    }
    if (t_recv > hard_deadline) {
      r.fail("load did not finish within 60 s of the phase end");
      sh.abort = true;
    }
  }
  sh.phase_closed = true;
  for (auto& t : threads) t.join();

  // Drain whatever the feeders sent after the phase closed (churn), then
  // read the final state every check compares against.
  wire::Stats final_stats;
  for (int i = 0; i < 24000 && !sh.abort; ++i) {
    ++probe_attempted;
    final_stats = probe.poll_stats(true);
    sh.coverage.observe(final_stats, Clock::now());
    if (sh.coverage.outstanding() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!sh.abort && sh.coverage.outstanding() != 0) {
    r.fail("sent frames never became visible in POLL_STATS");
  }
  const auto spans_all = kTraced ? spans::take() : std::vector<SpanRecord>{};

  // --- Accounting checks. --------------------------------------------------
  FeederStats total;
  for (FeederStats& f : fstats) {
    total.attempted += f.attempted;
    total.failed += f.failed;
    total.phase_feeds += f.phase_feeds;
    total.phase_channel_s += f.phase_channel_s;
    total.frames_sent += f.frames_sent;
    total.prints_in_phase += f.prints_in_phase;
    total.admit_ms.insert(total.admit_ms.end(), f.admit_ms.begin(),
                          f.admit_ms.end());
    for (const auto& e : f.errors) r.fail(e);
    for (auto& [i, sent] : f.sent) total.sent[i] = sent;
    for (auto& c : f.completed) total.completed.push_back(std::move(c));
  }
  r.attempted += total.attempted + probe_attempted;
  r.failed += total.failed + probe_failed;
  if (sh.abort) r.fail("load aborted");
  std::uint64_t enqueued = 0;
  for (const auto& s : final_stats.per_shard) enqueued += s.enqueued_frames;
  if (final_stats.shed_frames != 0 || final_stats.rejected_frames != 0) {
    r.fail("daemon shed " + std::to_string(final_stats.shed_frames) +
           " and rejected " + std::to_string(final_stats.rejected_frames) +
           " frames under --policy block");
  }
  if (!sh.abort && enqueued != total.frames_sent) {
    r.fail("daemon accepted " + std::to_string(enqueued) + " frames, client sent " +
           std::to_string(total.frames_sent));
  }

  // --- Stop the daemon; everything below is off the clock. -----------------
  probe.close();
  feeders.clear();
  const int exit_status = daemon->stop();
  if (exit_status != 0) r.fail("fleet_daemon exited " + std::to_string(exit_status));
  nsync::runtime::set_worker_count(4);

  std::vector<std::tuple<Printer, wire::StatsSession, std::vector<std::size_t>>>
      views;
  if (!sh.abort) {
    if (d.plan.mode == LoadMode::kChurn) {
      for (const Completed& c : total.completed) {
        std::vector<std::size_t> full;
        for (const Signal& s : c.printer.streams(d.kinds)) full.push_back(s.frames());
        views.emplace_back(c.printer, c.final, full);
      }
    } else {
      for (std::size_t i = 0; i < d.initial.size(); ++i) {
        if (ids[i] >= final_stats.sessions_detail.size()) {
          r.fail("final POLL_STATS misses " + d.initial[i].name);
          continue;
        }
        views.emplace_back(d.initial[i], final_stats.sessions_detail[ids[i]],
                           total.sent[i]);
      }
    }
    check_verdicts(d, views, r);
  }

  // --- Metrics. ------------------------------------------------------------
  // Timed metrics at the reference host speed; raw values in the notes.
  const double slowdown = host.slowdown();
  const double time = 1.0 / slowdown;
  r.put("setup_s", median(setup_s), setup_s.size(), time);
  const std::vector<double> lat = sh.coverage.latencies_ms();
  // A verdict waits half a probe period on average for the poll that sees
  // it, on any host; only the rest of its latency scales with host speed.
  const double wait_ms = kProbePeriodMs / 2.0;
  for (const auto& [name, q] : {std::pair{"verdict_p50_ms", 0.50},
                                std::pair{"verdict_p90_ms", 0.90},
                                std::pair{"verdict_p99_ms", 0.99}}) {
    const double v = percentile(lat, q);
    r.put(name, v, lat.size(), (wait_ms + (v - wait_ms) * time) / v);
  }
  if (d.plan.mode == LoadMode::kOpenLoop &&
      !(percentile(lat, 0.99) <= kRealtimeP99LimitMs)) {
    r.fail("verdict_p99_ms " + std::to_string(percentile(lat, 0.99)) +
           " exceeds the " + std::to_string(kRealtimeP99LimitMs) + " ms budget");
  }
  if (proc_start && total.phase_channel_s > 0.0 && closed_at > sh.t.phase) {
    r.put("cpu_ms_per_channel_s",
        1000.0 * (proc_end.cpu_s - proc_start->cpu_s) / total.phase_channel_s,
        total.phase_feeds, time);
    // The open loop's throughput is its schedule's rate, not the host's.
    r.put("throughput_channel_s_per_s",
        total.phase_channel_s /
            std::chrono::duration<double>(closed_at - sh.t.phase).count(),
        total.phase_feeds, d.plan.mode == LoadMode::kOpenLoop ? 1.0 : slowdown);
  } else {
    r.fail("no work was measured in the phase");
  }
  const MetricDef& stats_def = *find_metric("stats_p99_ms");
  if (stats_def.applies_to(r.workload)) {
    r.put("stats_p99_ms", percentile(stats_ms, 0.99), stats_ms.size(), time);
  }
  if (r.workload == "print_churn") {
    r.put("prints_per_s",
        static_cast<double>(total.prints_in_phase) / opt.phase_s,
        total.prints_in_phase, slowdown);
    r.put("admit_p50_ms", percentile(total.admit_ms, 0.50), total.admit_ms.size(),
        time);
    r.put("admit_p90_ms", percentile(total.admit_ms, 0.90), total.admit_ms.size(),
        time);
  } else {
    r.put("rss_mb_per_session",
        (at_admitted.vm_rss_mib - at_listen.vm_rss_mib) /
            static_cast<double>(d.initial.size()),
        d.initial.size());
  }
  r.put("failed_frac",
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0,
      r.attempted);
  r.notes["host_slowdown"] = slowdown;
  r.notes["host_samples"] = host.samples();

  // Seed observations: the stalls and write volumes the metrics summarize.
  r.notes["stats_max_ms"] = stats_max_ms;
  r.notes["daemon_vm_hwm_mib"] = proc_end.vm_hwm_mib;
  r.notes["daemon_write_mib_during_setup"] =
      static_cast<double>(at_admitted.wchar - at_listen.wchar) / (1 << 20);
  if (!total.admit_ms.empty()) {
    r.notes["admit_max_ms"] =
        *std::max_element(total.admit_ms.begin(), total.admit_ms.end());
  }
  r.notes["phase_feeds"] = total.phase_feeds;
  r.notes["phase_channel_s"] = total.phase_channel_s;
  json::Value& c = r.notes["constants"];
  c["warmup_s"] = d.plan.warmup_s;
  c["phase_s"] = opt.phase_s;
  c["block_s"] = d.plan.block_s;
  c["sessions_at_setup"] = d.initial.size();
  c["print_s"] = d.kinds.front().min_duration_s();
  if (d.plan.mode == LoadMode::kOpenLoop) c["compression"] = d.plan.compression;
  if (d.plan.mode == LoadMode::kChurn) c["prints_in_flight"] = d.initial.size();

  if constexpr (kTraced) {
    const auto put_layer = [&](const std::string& name, double v,
                               std::size_t n) {
      r.layers[name] = {v, find_metric(name)->unit, n};
    };
    const auto feed_ms =
        spans::durations_ms(spans_all, "client.feed", sh.t.phase, sh.t.end);
    const auto poll_ms =
        spans::durations_ms(spans_all, "client.poll_stats", sh.t.phase, sh.t.end);
    const auto late_ms =
        spans::durations_ms(spans_all, "gen.late", sh.t.phase, sh.t.end);
    put_layer("client.feed_rtt_p50_us", 1000.0 * percentile(feed_ms, 0.50),
              feed_ms.size());
    put_layer("client.feed_rtt_p99_us", 1000.0 * percentile(feed_ms, 0.99),
              feed_ms.size());
    put_layer("client.poll_rtt_p99_ms", percentile(poll_ms, 0.99), poll_ms.size());
    if (d.plan.mode == LoadMode::kOpenLoop) {
      put_layer("client.gen_late_p99_ms", percentile(late_ms, 0.99),
                late_ms.size());
    }
    if (proc_start && total.phase_feeds > 0) {
      const ProcSample& a = *proc_start;
      const ProcSample& b = proc_end;
      const auto task_delta = [&](pid_t tid) {
        const auto ia = a.task_cpu_s.find(tid);
        const auto ib = b.task_cpu_s.find(tid);
        return (ib == b.task_cpu_s.end() ? 0.0 : ib->second) -
               (ia == a.task_cpu_s.end() ? 0.0 : ia->second);
      };
      const double cpu = std::max(1e-9, b.cpu_s - a.cpu_s);
      double workers = 0.0;
      double listen_side = 0.0;
      for (std::size_t i = 0; i < listen_tasks.size(); ++i) {
        const double dt = task_delta(listen_tasks[i]);
        listen_side += dt;
        // Sorted task ids: main first, the accept thread last, the shard
        // workers in between.
        if (i > 0 && i + 1 < listen_tasks.size()) workers += dt;
      }
      const auto feeds = static_cast<double>(total.phase_feeds);
      put_layer("daemon.worker_cpu_share", workers / cpu, total.phase_feeds);
      put_layer("daemon.conn_cpu_share", (cpu - listen_side) / cpu,
                total.phase_feeds);
      put_layer("daemon.read_syscalls_per_feed",
                static_cast<double>(b.syscr - a.syscr) / feeds, total.phase_feeds);
      put_layer("daemon.ctx_switches_per_feed",
                static_cast<double>(b.ctx_switches - a.ctx_switches) / feeds,
                total.phase_feeds);
      if (r.workload == "print_churn" && total.prints_in_phase > 0) {
        std::uint64_t ck0 = 0;
        std::uint64_t ck1 = 0;
        for (const auto& s : stats_start.per_shard) ck0 += s.checkpoints_written;
        for (const auto& s : stats_end.per_shard) ck1 += s.checkpoints_written;
        const auto prints = static_cast<double>(total.prints_in_phase);
        put_layer("checkpoint.writes_per_print",
                  static_cast<double>(ck1 - ck0) / prints, total.prints_in_phase);
        put_layer("daemon.write_mb_per_print",
                  static_cast<double>(b.wchar - a.wchar) / (1 << 20) / prints,
                  total.prints_in_phase);
      }
    }
#if BENCH_E2E_TRACED
    std::vector<SpanRecord> all = spans_all;
    const auto replayed = replay_layers(make_replay_input(d, opt), r);
    all.insert(all.end(), replayed.begin(), replayed.end());
    if (!opt.spans_path.empty()) spans::write(opt.spans_path, all, sh.t.start);
#endif
  }
  return r;
}

}  // namespace bench
