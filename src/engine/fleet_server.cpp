#include "engine/fleet_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "signal/checkpoint.hpp"

namespace nsync::engine {

namespace {

using wire::ErrorCode;
using wire::Message;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

enum class WriteOutcome : std::uint8_t { kOk, kTimeout, kPeerGone };

/// Writes the whole buffer on a non-blocking fd, parking in poll(POLLOUT)
/// when the socket buffer is full.  `timeout_ms == 0` waits indefinitely;
/// otherwise the whole buffer must drain within the deadline or the call
/// gives up — the slow-consumer guard.
WriteOutcome write_all_deadline(int fd, const std::uint8_t* data,
                                std::size_t n, std::uint32_t timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (n > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
#else
    const ssize_t w = ::write(fd, data, n);
#endif
    if (w > 0) {
      data += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = -1;
      if (timeout_ms > 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0) return WriteOutcome::kTimeout;
        wait_ms = static_cast<int>(left.count());
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR) return WriteOutcome::kPeerGone;
      if (ready == 0 && timeout_ms > 0) return WriteOutcome::kTimeout;
      continue;
    }
    return WriteOutcome::kPeerGone;
  }
  return WriteOutcome::kOk;
}

wire::Error make_error(ErrorCode code, std::string message,
                       std::uint32_t retry_after_ms = 0) {
  wire::Error e;
  e.code = code;
  e.message = std::move(message);
  e.retry_after_ms = retry_after_ms;
  return e;
}

wire::StatsSession to_stats_session(const SessionSnapshot& snap) {
  wire::StatsSession s;
  s.name = snap.name;
  s.evicted = snap.evicted ? 1 : 0;
  s.intrusion = snap.intrusion ? 1 : 0;
  s.first_alarm_window = static_cast<std::int64_t>(snap.first_alarm_window);
  s.policy = snap.policy;
  s.fused_score = snap.fused_score;
  s.windows = snap.windows;
  s.frames_fed = snap.frames_fed;
  s.channels.reserve(snap.channels.size());
  for (const ChannelSnapshot& c : snap.channels) {
    wire::StatsChannel sc;
    sc.name = c.name;
    sc.alarm = c.detection.intrusion ? 1 : 0;
    sc.health = static_cast<std::uint8_t>(c.health);
    sc.score = c.score;
    sc.weight = c.weight;
    sc.windows = c.windows;
    sc.frames_fed = c.frames_fed;
    s.channels.push_back(std::move(sc));
  }
  return s;
}

wire::Stats to_stats(const FleetStats& fs) {
  wire::Stats m;
  m.shards = fs.shards;
  m.sessions = fs.sessions;
  m.evicted = fs.evicted;
  m.windows = fs.windows;
  m.shed_frames = fs.shed_frames;
  m.rejected_frames = fs.rejected_frames;
  m.queued_frames = fs.queued_frames;
  m.busy = fs.busy ? 1 : 0;
  m.failed_shards = fs.failed_shards;
  m.per_shard.reserve(fs.per_shard.size());
  for (const ShardStats& s : fs.per_shard) {
    wire::StatsShard ws;
    ws.shard = s.shard;
    ws.sessions = s.sessions;
    ws.queued_frames = s.queue.queued_frames;
    ws.peak_queued_frames = s.queue.peak_queued_frames;
    ws.enqueued_frames = s.queue.enqueued_frames;
    ws.shed_frames = s.queue.shed_frames;
    ws.rejected_frames = s.queue.rejected_frames;
    ws.batches = s.batches;
    ws.polls = s.polls;
    ws.windows = s.windows;
    ws.feed_errors = s.feed_errors;
    ws.failed = s.failed ? 1 : 0;
    ws.restarts = s.restarts;
    ws.discarded_frames = s.discarded_frames;
    ws.checkpoints_written = s.checkpoints_written;
    ws.latency_samples = s.latency_samples;
    ws.p50_feed_to_verdict_us = s.p50_feed_to_verdict_us;
    ws.p99_feed_to_verdict_us = s.p99_feed_to_verdict_us;
    ws.in_flight = s.queue.in_flight ? 1 : 0;
    m.per_shard.push_back(ws);
  }
  return m;
}

struct RequestVisitor {
  ShardedFleet& fleet;

  Message operator()(const wire::Hello& h) const {
    if (h.version != wire::kProtocolVersion) {
      return make_error(ErrorCode::kBadVersion,
                        "client protocol version unsupported");
    }
    wire::HelloOk ok;
    ok.shards = fleet.shards();
    ok.sessions = fleet.sessions();
    return ok;
  }

  Message operator()(wire::AddSession&& a) const {
    try {
      // Idempotent re-attach: a reconnecting client re-issues its specs
      // after a resync; a live session with the same name answers with
      // the existing id instead of admitting a duplicate.  The stored
      // session state (spec, offsets, verdicts) wins over the re-sent
      // spec — that is exactly what makes the resync exactly-once.
      if (const auto existing = fleet.find_live_session(a.spec.name)) {
        // The client reads its resume offsets next: make every frame this
        // server acknowledged before the reconnect count in them, or the
        // client sees a rollback that never happened.
        fleet.settle(*existing);
        wire::AddSessionOk ok;
        ok.session = *existing;
        ok.shard = fleet.shard_of(*existing);
        return ok;
      }
      // The decoder validated structure; add_session validates semantics
      // (empty specs, non-DWM configs, ...).
      const std::size_t id = fleet.add_session(std::move(a.spec));
      wire::AddSessionOk ok;
      ok.session = id;
      ok.shard = fleet.shard_of(id);
      return ok;
    } catch (const std::invalid_argument& e) {
      return make_error(ErrorCode::kMalformed, e.what());
    } catch (const nsync::signal::CheckpointError& e) {
      return make_error(ErrorCode::kInternal, e.what());
    }
  }

  Message operator()(wire::Feed&& f) const {
    const FeedResult r = fleet.feed(static_cast<std::size_t>(f.session),
                                    f.channel, std::move(f.frames));
    switch (r.status) {
      case FeedStatus::kOk:
      case FeedStatus::kShed: {
        wire::FeedOk ok;
        ok.accepted_frames = r.accepted_frames;
        ok.shed_frames = r.shed_frames;
        ok.queued_frames = r.queued_frames;
        return ok;
      }
      case FeedStatus::kRejected:
        return make_error(ErrorCode::kOverloaded,
                          "shard queue past high-water mark");
      case FeedStatus::kUnknownSession:
        return make_error(ErrorCode::kUnknownSession, "no such session");
      case FeedStatus::kUnknownChannel:
        return make_error(ErrorCode::kUnknownChannel, "no such channel");
      case FeedStatus::kChannelMismatch:
        return make_error(ErrorCode::kChannelMismatch,
                          "frame width does not match channel");
      case FeedStatus::kEvicted:
        return make_error(ErrorCode::kEvicted, "session was evicted");
      case FeedStatus::kShardFailed:
        return make_error(ErrorCode::kShardFailed,
                          "the session's shard worker failed");
    }
    return make_error(ErrorCode::kInternal, "unhandled feed status");
  }

  Message operator()(const wire::PollStats& p) const {
    wire::Stats m = to_stats(fleet.stats());
    // Per-device adaptation-rate telemetry: fold/frozen counters for every
    // (model, sensor-profile) baseline, so operators can see which
    // channels are adapting vs frozen.  Empty unless shards run adaptive.
    for (const ShardBaselines& sb : fleet.baselines()) {
      for (const ShardBaselineEntry& e : sb.entries) {
        wire::StatsBaseline b;
        b.shard = sb.shard;
        b.model = e.model;
        b.profile = e.profile;
        b.prints = e.baseline.prints;
        b.frozen = e.baseline.frozen;
        m.baselines.push_back(std::move(b));
      }
    }
    if (p.include_sessions != 0) {
      const std::vector<SessionSnapshot> snaps = fleet.snapshots();
      m.sessions_detail.reserve(snaps.size());
      for (const SessionSnapshot& s : snaps) {
        m.sessions_detail.push_back(to_stats_session(s));
      }
    }
    return m;
  }

  Message operator()(const wire::Evict& e) const {
    try {
      if (!fleet.evict_session(static_cast<std::size_t>(e.session))) {
        // Double-EVICT is a frame-local typed error, not success: the
        // caller's view of the session lifecycle is out of sync and it
        // should know.  (A reconnecting client treats this as done.)
        return make_error(ErrorCode::kEvicted, "session already evicted");
      }
      return wire::EvictOk{};
    } catch (const std::out_of_range&) {
      return make_error(ErrorCode::kUnknownSession, "no such session");
    } catch (const nsync::signal::CheckpointError& err) {
      return make_error(ErrorCode::kInternal, err.what());
    }
  }

  Message operator()(const wire::Ping& p) const {
    wire::Pong pong;
    pong.nonce = p.nonce;
    return pong;
  }

  // Reply types arriving as requests are protocol misuse, not framing
  // corruption: answer with a typed error and keep the connection.
  Message operator()(const wire::HelloOk&) const { return misuse(); }
  Message operator()(const wire::AddSessionOk&) const { return misuse(); }
  Message operator()(const wire::FeedOk&) const { return misuse(); }
  Message operator()(const wire::Stats&) const { return misuse(); }
  Message operator()(const wire::EvictOk&) const { return misuse(); }
  Message operator()(const wire::Pong&) const { return misuse(); }
  Message operator()(const wire::Error&) const { return misuse(); }

  static Message misuse() {
    return make_error(ErrorCode::kBadType, "reply type sent as request");
  }
};

}  // namespace

FleetServer::FleetServer(ShardedFleet& fleet, FleetServerOptions options)
    : fleet_(fleet), options_(std::move(options)) {}

FleetServer::~FleetServer() { stop(); }

wire::Message FleetServer::handle(ShardedFleet& fleet,
                                  wire::Message request) {
  return std::visit(RequestVisitor{fleet}, std::move(request));
}

void FleetServer::start() {
  if (listen_fd_ >= 0) throw std::runtime_error("FleetServer already started");
  stopping_.store(false);

  if (!options_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("FleetServer: UDS path too long");
    }
    std::strncpy(addr.sun_path, options_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("FleetServer: socket() failed");
    }
    ::unlink(options_.uds_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("FleetServer: bind(" + options_.uds_path +
                               ") failed: " + std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("FleetServer: socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("FleetServer: bind(127.0.0.1) failed: " +
                               std::string(std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }

  if (::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("FleetServer: listen() failed");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FleetServer::stop() {
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
  std::vector<Connection> conns;
  {
    const std::scoped_lock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (Connection& c : conns) {
    // Shutdown wakes the connection thread out of read(); it closes the
    // fd itself on exit.
    ::shutdown(c.fd, SHUT_RDWR);
    if (c.thread.joinable()) c.thread.join();
  }
  bound_port_ = 0;
}

void FleetServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void FleetServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR — recheck stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Persistent accept() failures (EMFILE/ENFILE fd exhaustion, ...)
      // leave the listen socket readable, so a bare retry hot-spins at
      // 100 % CPU for as long as the condition lasts.  Count and back off.
      accept_errors_.fetch_add(1);
      if (options_.accept_error_backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.accept_error_backoff_ms));
      }
      continue;
    }
    set_nonblocking(fd);
    const std::scoped_lock lock(conns_mu_);
    reap_finished_locked();
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      // Admission cap: answer with a typed busy error (so a well-behaved
      // client backs off for retry_after_ms) and close.  The reply write
      // is bounded too — an attacker filling the cap cannot also wedge
      // the accept loop.
      busy_rejected_.fetch_add(1);
      const std::vector<std::uint8_t> bytes = wire::encode(
          make_error(ErrorCode::kBusy, "connection limit reached",
                     options_.busy_retry_after_ms));
      const std::uint32_t budget =
          std::max<std::uint32_t>(options_.write_timeout_ms, 100);
      write_all_deadline(fd, bytes.data(), bytes.size(), budget);
      // Half-close and drain: if the client's first request is already
      // sitting unread in our receive buffer, a bare close() turns into a
      // reset that can destroy the busy reply in flight.  Shut down the
      // write side so the client sees EOF after the reply, then read until
      // the peer closes (bounded, so a flood cannot wedge the accept loop).
      ::shutdown(fd, SHUT_WR);
      const auto drain_deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(budget);
      char scratch[256];
      for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= drain_deadline) break;
        pollfd drain_pfd{fd, POLLIN, 0};
        const int left = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                drain_deadline - now)
                .count());
        if (::poll(&drain_pfd, 1, std::max(left, 1)) <= 0) break;
        if (::read(fd, scratch, sizeof scratch) <= 0) break;
      }
      ::close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1);
    Connection conn;
    conn.fd = fd;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    auto done = conn.done;
    conn.thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    conns_.push_back(std::move(conn));
  }
}

bool FleetServer::write_reply(int fd, const std::vector<std::uint8_t>& bytes) {
  switch (write_all_deadline(fd, bytes.data(), bytes.size(),
                             options_.write_timeout_ms)) {
    case WriteOutcome::kOk:
      return true;
    case WriteOutcome::kTimeout:
      write_timeouts_.fetch_add(1);
      return false;
    case WriteOutcome::kPeerGone:
      return false;
  }
  return false;
}

void FleetServer::serve_connection(int fd) {
  using Clock = std::chrono::steady_clock;
  wire::FrameDecoder decoder;
  std::vector<std::uint8_t> rx(64 * 1024);
  std::vector<std::uint8_t> tx;  // reply frames, one buffer reused
  bool open = true;
  Clock::time_point last_activity = Clock::now();
  while (open && !stopping_.load()) {
    // Poll in short ticks so stop() and the idle deadline are both
    // honored; any byte from the peer resets the idle clock.
    int tick_ms = 100;
    if (options_.idle_timeout_ms > 0) {
      const auto idle_left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              last_activity +
              std::chrono::milliseconds(options_.idle_timeout_ms) -
              Clock::now());
      if (idle_left.count() <= 0) {
        idle_reaped_.fetch_add(1);
        break;
      }
      tick_ms = static_cast<int>(
          std::min<std::int64_t>(tick_ms, idle_left.count()));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, tick_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // tick: recheck stopping_ / idle deadline
    const ssize_t n = ::read(fd, rx.data(), rx.size());
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) break;  // peer closed or error
    last_activity = Clock::now();
    decoder.feed(std::span<const std::uint8_t>(
        rx.data(), static_cast<std::size_t>(n)));

    while (open) {
      Message request;
      std::string detail;
      const wire::DecodeStatus st = decoder.next(request, &detail);
      if (st == wire::DecodeStatus::kNeedMore) break;

      Message reply;
      bool close_after = false;
      switch (st) {
        case wire::DecodeStatus::kFrame:
          reply = handle(fleet_, std::move(request));
          break;
        case wire::DecodeStatus::kBadType:
          reply = make_error(ErrorCode::kBadType, detail);
          break;
        case wire::DecodeStatus::kMalformed:
          reply = make_error(ErrorCode::kMalformed, detail);
          break;
        case wire::DecodeStatus::kBadVersion:
          reply = make_error(ErrorCode::kBadVersion, detail);
          close_after = true;
          break;
        case wire::DecodeStatus::kBadMagic:
        case wire::DecodeStatus::kOversized:
        case wire::DecodeStatus::kBadCrc:
        default:
          reply = make_error(ErrorCode::kBadFrame, detail);
          close_after = true;
          break;
      }
      wire::encode_into(reply, tx);
      if (!write_reply(fd, tx)) close_after = true;
      if (close_after) open = false;
    }
  }
  ::close(fd);
}

FleetServerStats FleetServer::stats() const {
  FleetServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_busy_rejected = busy_rejected_.load();
  s.accept_errors = accept_errors_.load();
  s.idle_reaped = idle_reaped_.load();
  s.write_timeouts = write_timeouts_.load();
  {
    const std::scoped_lock lock(conns_mu_);
    for (const Connection& c : conns_) {
      if (!c.done->load()) ++s.open_connections;
    }
  }
  return s;
}

}  // namespace nsync::engine
