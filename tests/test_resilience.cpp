// Fleet-service resilience: deadline I/O (idle reap, write deadline,
// admission cap), PING/PONG keepalive, idempotent re-attach, session
// lifecycle edges over the socket, deterministic reconnect backoff,
// shard-worker supervision (isolation, typed errors, restart from
// checkpoint), and a multi-client chaos soak asserting bitwise verdict
// parity through a fault-injecting proxy.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/chaos/chaos_proxy.hpp"
#include "engine/fleet_server.hpp"
#include "engine/frame_queue.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/resilient_client.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_client.hpp"
#include "engine/wire_protocol.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "test_support.hpp"

using namespace nsync;
using namespace nsync::engine;
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

/// Same fixture shape as test_sharded_fleet: calibrated two-channel specs
/// plus deterministic streams, session `attack_session` tampered.
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

/// Clean-run ground truth: the same streams through one MonitorEngine.
std::vector<Verdict> run_monitor_engine(const Fixture& fx) {
  MonitorEngine eng;
  for (std::size_t s = 0; s < fx.sessions(); ++s) eng.add_session(fx.spec(s));
  std::vector<std::vector<std::size_t>> offsets(
      fx.sessions(), std::vector<std::size_t>(fx.channels.size(), 0));
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        const Signal& sig = fx.streams[s][c];
        const std::size_t off = offsets[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        eng.feed(s, fx.channels[c], SignalView(sig).slice(off, hi));
        offsets[s][c] = hi;
        if (hi < sig.frames()) more = true;
      }
    }
    eng.poll_inline();
  }
  std::vector<Verdict> out;
  for (const auto& snap : test_support::snapshots(eng)) {
    out.push_back(to_verdict(snap));
  }
  return out;
}

std::string unique_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("nsync_resil_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) : path_(unique_path(tag)) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Spin-waits for `pred` to turn true; false on timeout.
template <typename Pred>
bool wait_for(Pred&& pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace

// --- Deterministic backoff --------------------------------------------------

TEST(Backoff, JitterScheduleIsSeededDeterministicAndBounded) {
  ResilientClientOptions opts;
  opts.backoff_base_ms = 10;
  opts.backoff_cap_ms = 400;
  opts.jitter_seed = 42;
  ResilientWireClient a(WireEndpoint{"/nonexistent", 0}, opts);
  ResilientWireClient b(WireEndpoint{"/nonexistent", 0}, opts);
  std::vector<std::uint32_t> sa, sb;
  for (std::size_t k = 0; k < 10; ++k) {
    sa.push_back(a.backoff_delay_ms(k));
    sb.push_back(b.backoff_delay_ms(k));
  }
  EXPECT_EQ(sa, sb) << "equal seeds must reproduce equal schedules";
  for (std::size_t k = 0; k < sa.size(); ++k) {
    const std::uint64_t d =
        std::min<std::uint64_t>(400, std::uint64_t{10} << std::min<std::size_t>(k, 20));
    EXPECT_GE(sa[k], d / 2) << "attempt " << k;
    EXPECT_LE(sa[k], d) << "attempt " << k;
  }
  // The exponential ramp saturates at the cap.
  EXPECT_LE(sa[9], 400u);

  opts.jitter_seed = 43;
  ResilientWireClient c(WireEndpoint{"/nonexistent", 0}, opts);
  std::vector<std::uint32_t> sc;
  for (std::size_t k = 0; k < 10; ++k) sc.push_back(c.backoff_delay_ms(k));
  EXPECT_NE(sa, sc) << "different seeds must decorrelate";
}

/// PING round trip through the raw request path: the echoed nonce.
std::uint64_t ping(WireClient& client, std::uint64_t nonce) {
  return std::get<wire::Pong>(client.request(wire::Ping{nonce})).nonce;
}

// --- Keepalive and admission ------------------------------------------------

TEST(Resilience, PingPongRoundTripsNonce) {
  const std::string sock = unique_path("ping") + ".sock";
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();

  WireClient client = WireClient::connect_uds(sock);
  EXPECT_EQ(ping(client, 0xFEEDFACECAFEBEEFull), 0xFEEDFACECAFEBEEFull);
  // Frame-local: the stream stays usable afterwards.
  EXPECT_EQ(client.hello("after-ping").sessions, 0u);

  // PONG sent as a request is misuse, also frame-local.
  const wire::Message reply = client.request(wire::Pong{1});
  ASSERT_TRUE(std::holds_alternative<wire::Error>(reply));
  EXPECT_EQ(std::get<wire::Error>(reply).code, wire::ErrorCode::kBadType);
  EXPECT_EQ(ping(client, 7), 7u);
  server.stop();
}

TEST(Resilience, IdleDeadlineReapsHalfOpenByteAtATimeClient) {
  const std::string sock = unique_path("idle") + ".sock";
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  sopts.idle_timeout_ms = 150;
  FleetServer server(fleet, sopts);
  server.start();

  // A half-open client: dribbles a few header bytes of a valid frame,
  // then goes silent forever.  Without the idle deadline this connection
  // would pin a server thread indefinitely.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::vector<std::uint8_t> frame = wire::encode(wire::PollStats{});
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(::write(fd, frame.data() + i, 1), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The server must reap us: read() sees EOF once the connection closes.
  std::uint8_t byte = 0;
  ssize_t n = -1;
  ASSERT_TRUE(wait_for([&] {
    n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    return n == 0;
  })) << "half-open client was not reaped by the idle deadline";
  ::close(fd);
  EXPECT_TRUE(wait_for([&] { return server.stats().idle_reaped >= 1; }));

  // A live client is unaffected as long as it keeps talking.
  WireClient client = WireClient::connect_uds(sock);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ping(client, static_cast<std::uint64_t>(i)),
              static_cast<std::uint64_t>(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  server.stop();
}

TEST(Resilience, AdmissionCapRejectsWithTypedBusyAndRetryAfter) {
  const std::string sock = unique_path("busy") + ".sock";
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  sopts.max_connections = 1;
  sopts.busy_retry_after_ms = 123;
  FleetServer server(fleet, sopts);
  server.start();

  auto first = std::make_unique<WireClient>(WireClient::connect_uds(sock));
  EXPECT_EQ(first->hello("holder").sessions, 0u);

  // Second connect is admitted at the socket level but answered with a
  // typed kBusy error carrying the retry-after hint, then closed.
  bool saw_busy = false;
  try {
    WireClient second = WireClient::connect_uds(sock);
    (void)second.hello("excess");
  } catch (const WireError& e) {
    saw_busy = true;
    EXPECT_EQ(e.code(), wire::ErrorCode::kBusy);
    EXPECT_EQ(e.retry_after_ms(), 123u);
  }
  ASSERT_TRUE(saw_busy);
  EXPECT_TRUE(
      wait_for([&] { return server.stats().connections_busy_rejected >= 1; }));

  // Once the holder leaves, the next connect is admitted (the resilient
  // client does exactly this dance automatically).
  first.reset();
  ResilientClientOptions copts;
  copts.backoff_base_ms = 20;
  copts.backoff_cap_ms = 100;
  copts.max_attempts = 20;
  ResilientWireClient retry(WireEndpoint{sock, 0}, copts);
  EXPECT_EQ(retry.connect_now().sessions, 0u);
  server.stop();
}

TEST(Resilience, WriteDeadlineClosesSlowConsumer) {
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.tcp_port = 0;  // kernel-assigned loopback port
  sopts.uds_path.clear();
  sopts.write_timeout_ms = 200;
  FleetServer server(fleet, sopts);
  server.start();

  // A slow consumer: tiny receive buffer, fires requests and never reads
  // a single reply.  Replies back up until the server's write cannot
  // complete within the deadline; the server must close us rather than
  // wedge the connection thread.
  //
  // The small MSS bounds how much the server must write before a write
  // blocks.  Linux sizes a new connection's send buffer from the peer's
  // MSS, and loopback's ~64 KiB MSS gives it megabytes: ~6.5 MB of pings
  // on an idle host, and under a loaded `ctest -j8` the server's
  // connection thread got through only ~3.9 MB in the 10 s bound.  At
  // 536 bytes a server write blocks after about 2 MB of pings, idle or
  // loaded.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcv = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv));
  const int mss = 536;
  ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.bound_tcp_port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // Keep the pressure on: whenever the socket takes more, send more pings
  // (never reading) until the server times a write out or closes us.
  // Stopping at the first EAGAIN is not enough: under load the replies to
  // what was sent by then can all fit in the socket buffers, and then no
  // server write ever blocks.  A send the full buffer cuts short resumes
  // mid-frame (`off`): restarting the ping would corrupt the stream, and
  // the server would close us for a bad frame instead.
  const std::vector<std::uint8_t> ping = wire::encode(wire::Ping{99});
  std::size_t off = 0;
  const auto timed_out = [&] { return server.stats().write_timeouts >= 1; };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10000);
  bool peer_closed = false;
  while (!peer_closed && !timed_out() &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP)) != 0) break;
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t w = ::send(fd, ping.data() + off, ping.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w >= 0) {
        off = (off + static_cast<std::size_t>(w)) % ping.size();
        continue;
      }
      peer_closed = errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
      break;
    }
  }
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  EXPECT_TRUE(wait_for(timed_out,
                       std::max(left, std::chrono::milliseconds(0))))
      << "server never timed out the slow consumer's reply write";
  ::close(fd);
  server.stop();
}

// --- The connection loop: one read, one send, then the wakes ---------------

namespace {

int connect_raw_uds(const std::string& sock) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// `count` FEED frames for channel ACC of `session`, back to back in one
/// buffer; FEED i carries i + 1 frames (plus `extra`), so replies can be
/// matched to requests by their accepted counts.
std::vector<std::uint8_t> feed_burst(std::size_t session, std::size_t count,
                                     std::size_t extra = 0) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < count; ++i) {
    wire::Feed f;
    f.session = session;
    f.channel = "ACC";
    f.frames = Signal(i + 1 + extra, 2, 100.0);
    const std::vector<std::uint8_t> frame = wire::encode(f);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

/// Reads until `count` reply frames arrived (or 5 s passed).
std::vector<wire::Message> read_replies(int fd, std::size_t count) {
  wire::FrameDecoder decoder;
  std::vector<wire::Message> out;
  std::vector<std::uint8_t> buf(4096);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (out.size() < count && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n <= 0) break;
    decoder.feed(std::span<const std::uint8_t>(buf.data(),
                                               static_cast<std::size_t>(n)));
    wire::Message m;
    while (decoder.next(m) == wire::DecodeStatus::kFrame) {
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace

TEST(FleetServerLoop, OneWriteOfEightFeedsIsAnsweredByOneSendAndOneWake) {
  const std::string sock = unique_path("burst") + ".sock";
  Fixture fx(1, /*attack_session=*/99);
  ShardedFleet fleet;
  const std::size_t session = fleet.add_session(fx.spec(0));
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();
  const int fd = connect_raw_uds(sock);
  ASSERT_GE(fd, 0);

  const std::uint64_t wakes_before =
      fleet.stats().per_shard[0].queue.wakeups;
  const std::vector<std::uint8_t> burst = feed_burst(session, 8);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const std::vector<wire::Message> replies = read_replies(fd, 8);
  ASSERT_EQ(replies.size(), 8u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_TRUE(std::holds_alternative<wire::FeedOk>(replies[i])) << i;
    EXPECT_EQ(std::get<wire::FeedOk>(replies[i]).accepted_frames, i + 1)
        << "replies out of request order";
  }
  // The deferred wake fired: every frame is processed with no further
  // request on the wire.  The server counts its send before that wake.
  constexpr std::size_t kBurstFrames = 8 * 9 / 2;
  EXPECT_TRUE(wait_for(
      [&] { return fleet.snapshot(session).frames_fed == kBurstFrames; }));
  // A Unix-socket write this small arrives in one read.
  EXPECT_EQ(server.stats().reads, 1u);
  EXPECT_EQ(server.stats().reply_sends, 1u);
  EXPECT_LE(fleet.stats().per_shard[0].queue.wakeups - wakes_before, 1u);
  ::close(fd);
  server.stop();
}

TEST(FleetServerLoop, FeedsOfAClientThatClosesAtOnceAreProcessed) {
  const std::string sock = unique_path("hangup") + ".sock";
  Fixture fx(1, /*attack_session=*/99);
  ShardedFleet fleet;
  const std::size_t session = fleet.add_session(fx.spec(0));
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();
  const int fd = connect_raw_uds(sock);
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> burst = feed_burst(session, 8);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ::close(fd);  // the replies have nowhere to go
  EXPECT_TRUE(wait_for(
      [&] { return fleet.snapshot(session).frames_fed == 8u * 9 / 2; }));
  server.stop();
}

TEST(FleetServerLoop, BlockQueueSmallerThanOneReadDoesNotDeadlock) {
  const std::string sock = unique_path("tinyq") + ".sock";
  Fixture fx(1, /*attack_session=*/99);
  ShardedFleetOptions fopts;
  fopts.queue_capacity_frames = 4;
  fopts.overflow = OverflowPolicy::kBlock;
  ShardedFleet fleet(fopts);
  const std::size_t session = fleet.add_session(fx.spec(0));
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();
  const int fd = connect_raw_uds(sock);
  ASSERT_GE(fd, 0);
  // 8 FEEDs of 3..10 frames: from the second on, every push must wait for
  // the worker to make room, and the worker has not been woken yet.
  const std::vector<std::uint8_t> burst = feed_burst(session, 8, 2);
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const std::vector<wire::Message> replies = read_replies(fd, 8);
  ASSERT_EQ(replies.size(), 8u) << "the connection deadlocked on its queue";
  for (const wire::Message& m : replies) {
    EXPECT_TRUE(std::holds_alternative<wire::FeedOk>(m));
  }
  EXPECT_TRUE(wait_for(
      [&] { return fleet.snapshot(session).frames_fed == 8u * 9 / 2 + 16; }));
  ::close(fd);
  server.stop();
}

TEST(FleetServerLoop, StopReturnsPromptlyWhileAConnectionBlocksInRead) {
  const std::string sock = unique_path("stopread") + ".sock";
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();
  WireClient client = WireClient::connect_uds(sock);
  EXPECT_EQ(ping(client, 5), 5u);
  // The connection thread is now parked in read() on a silent client.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_EQ(server.stats().open_connections, 0u);
}

TEST(FleetServerLoop, IdleReapFiresWithinTheTimeoutPlusOneTick) {
  const std::string sock = unique_path("idletick") + ".sock";
  constexpr std::int64_t kIdleMs = 250;
  constexpr std::int64_t kTickMs = 100;
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  sopts.idle_timeout_ms = kIdleMs;
  FleetServer server(fleet, sopts);
  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  const int fd = connect_raw_uds(sock);
  ASSERT_GE(fd, 0);
  // Silent client: the server closes the connection, read() sees EOF.
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // The deadline counts from the accept, after t0; the server's clock
  // rounds the time left down to whole milliseconds.
  EXPECT_GE(took, kIdleMs - 1);
  EXPECT_LE(took, kIdleMs + kTickMs);
  ::close(fd);
  EXPECT_TRUE(wait_for([&] { return server.stats().idle_reaped == 1; }));
  server.stop();
}

// --- Session lifecycle over the wire ----------------------------------------

TEST(Resilience, AddSessionReattachesByNameInsteadOfDuplicating) {
  const std::string sock = unique_path("reattach") + ".sock";
  Fixture fx(1, /*attack_session=*/99);
  ShardedFleetOptions fopts;
  fopts.shards = 2;
  ShardedFleet fleet(fopts);
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();

  WireClient c1 = WireClient::connect_uds(sock);
  const wire::AddSessionOk first = c1.add_session(fx.spec(0));

  // A reconnecting feeder re-issues the same registration: the server
  // re-attaches to the live session instead of creating a twin.
  WireClient c2 = WireClient::connect_uds(sock);
  const wire::AddSessionOk again = c2.add_session(fx.spec(0));
  EXPECT_EQ(again.session, first.session);
  EXPECT_EQ(again.shard, first.shard);
  EXPECT_EQ(c2.hello("count").sessions, 1u);

  // Eviction ends the name's liveness: the next registration is a fresh
  // session, not a resurrection.
  c2.evict(first.session);
  const wire::AddSessionOk fresh = c2.add_session(fx.spec(0));
  EXPECT_NE(fresh.session, first.session);
  server.stop();
}

TEST(Resilience, EvictThenFeedAndDoubleEvictAreFrameLocalTypedErrors) {
  const std::string sock = unique_path("lifecycle") + ".sock";
  Fixture fx(1, /*attack_session=*/99);
  ShardedFleet fleet;
  FleetServerOptions sopts;
  sopts.uds_path = sock;
  FleetServer server(fleet, sopts);
  server.start();

  WireClient client = WireClient::connect_uds(sock);
  const wire::AddSessionOk ok = client.add_session(fx.spec(0));
  client.evict(ok.session);

  // Double EVICT: typed kEvicted, not a poisoned stream.
  try {
    client.evict(ok.session);
    FAIL() << "double evict must be a typed error";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), wire::ErrorCode::kEvicted);
  }
  // EVICT-then-FEED: same discipline.
  Signal frames(64, 2, 100.0);
  try {
    (void)client.feed(ok.session, "ACC", frames);
    FAIL() << "feeding an evicted session must be a typed error";
  } catch (const WireError& e) {
    EXPECT_EQ(e.code(), wire::ErrorCode::kEvicted);
  }
  // The connection survived all of it.
  EXPECT_EQ(ping(client, 3), 3u);
  EXPECT_EQ(client.hello("still-alive").sessions, 1u);
  server.stop();
}

// --- Reconnect with idempotent resync ---------------------------------------

TEST(Resilience, ReconnectResyncKeepsVerdictsBitwiseIdentical) {
  const std::string backend = unique_path("resync_backend") + ".sock";
  const std::string front = unique_path("resync_front") + ".sock";
  Fixture fx(2, /*attack_session=*/1);
  const std::vector<Verdict> expected = run_monitor_engine(fx);

  ShardedFleetOptions fopts;
  fopts.shards = 2;
  ShardedFleet fleet(fopts);
  FleetServerOptions sopts;
  sopts.uds_path = backend;
  FleetServer server(fleet, sopts);
  server.start();

  // Clean relay (no random faults) — we cut it by hand mid-stream.
  ChaosProxyOptions popts;
  popts.listen_uds = front;
  popts.backend_uds = backend;
  popts.max_chunk = 512;
  ChaosProxy proxy(popts);
  proxy.start();

  ResilientClientOptions copts;
  copts.client_name = "resync-test";
  copts.max_attempts = 20;
  copts.backoff_base_ms = 1;
  copts.backoff_cap_ms = 20;
  ResilientWireClient client(WireEndpoint{front, 0}, copts);
  std::vector<std::uint64_t> handles;
  for (std::size_t s = 0; s < fx.sessions(); ++s) {
    handles.push_back(client.add_session(fx.spec(s)));
  }

  std::vector<std::vector<std::size_t>> offsets(
      fx.sessions(), std::vector<std::size_t>(fx.channels.size(), 0));
  bool more = true;
  std::size_t rounds = 0;
  while (more) {
    more = false;
    // Two hard cuts mid-stream: every in-flight call sees its connection
    // die and must reconnect, re-attach and resync its cursor.
    if (rounds == 3 || rounds == 7) proxy.kill_active();
    ++rounds;
    for (std::size_t s = 0; s < fx.sessions(); ++s) {
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        const Signal& sig = fx.streams[s][c];
        const std::size_t off = offsets[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        const auto out = client.feed(handles[s], fx.channels[c],
                                     SignalView(sig).slice(off, hi), off);
        ASSERT_FALSE(out.rewound) << "server never lost state in this test";
        offsets[s][c] = out.cursor;
        if (out.cursor < sig.frames()) more = true;
      }
    }
  }
  ASSERT_TRUE(wait_for([&] {
    const wire::Stats st = client.poll_stats(false);
    return st.queued_frames == 0 && st.busy == 0;
  }));
  fleet.flush();

  EXPECT_GE(client.telemetry().reconnects, 1u)
      << "the cuts must have forced at least one reconnect";
  std::vector<Verdict> got;
  for (const auto& snap : fleet.snapshots()) got.push_back(to_verdict(snap));
  EXPECT_EQ(got, expected)
      << "reconnect + resync must not double-count or skip frames";
  proxy.stop();
  server.stop();
}

// --- Multi-client chaos soak ------------------------------------------------

TEST(ChaosSoak, MultiClientVerdictParityUnderSeededChaos) {
  const std::string backend = unique_path("chaos_backend") + ".sock";
  const std::string front = unique_path("chaos_front") + ".sock";
  constexpr std::size_t kSessions = 3;
  Fixture fx(kSessions, /*attack_session=*/1);
  const std::vector<Verdict> expected = run_monitor_engine(fx);

  ShardedFleetOptions fopts;
  fopts.shards = 2;
  ShardedFleet fleet(fopts);
  FleetServerOptions sopts;
  sopts.uds_path = backend;
  sopts.idle_timeout_ms = 10000;
  FleetServer server(fleet, sopts);
  server.start();

  ChaosProxyOptions popts;
  popts.listen_uds = front;
  popts.backend_uds = backend;
  popts.seed = 20260809;
  popts.drop_prob = 0.02;   // seeded mid-frame disconnects
  popts.delay_prob = 0.10;  // delayed reads
  popts.max_delay_ms = 2;
  popts.max_chunk = 512;    // partial writes everywhere
  ChaosProxy proxy(popts);
  proxy.start();

  // One independent client (own connection, own backoff stream) per
  // session, all hammering the proxy concurrently.
  std::vector<std::thread> feeders;
  std::vector<std::string> failures(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    feeders.emplace_back([&, s] {
      try {
        ResilientClientOptions copts;
        copts.client_name = "chaos-" + std::to_string(s);
        copts.max_attempts = 100;
        copts.backoff_base_ms = 1;
        copts.backoff_cap_ms = 20;
        copts.jitter_seed = 1000 + s;
        ResilientWireClient client(WireEndpoint{front, 0}, copts);
        const std::uint64_t handle = client.add_session(fx.spec(s));
        std::vector<std::size_t> offsets(fx.channels.size(), 0);
        bool more = true;
        while (more) {
          more = false;
          for (std::size_t c = 0; c < fx.channels.size(); ++c) {
            const Signal& sig = fx.streams[s][c];
            const std::size_t off = offsets[c];
            if (off >= sig.frames()) continue;
            const std::size_t hi = std::min(off + kChunk, sig.frames());
            const auto out = client.feed(handle, fx.channels[c],
                                         SignalView(sig).slice(off, hi), off);
            offsets[c] = out.cursor;
            if (out.cursor < sig.frames()) more = true;
          }
        }
      } catch (const std::exception& e) {
        failures[s] = e.what();
      }
    });
  }
  for (auto& t : feeders) t.join();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(failures[s], "") << "feeder " << s << " died";
  }
  fleet.flush();

  std::vector<Verdict> got;
  for (const auto& snap : fleet.snapshots()) got.push_back(to_verdict(snap));
  // Concurrent clients race on admission order, so server session ids (and
  // snapshot order) are nondeterministic; per-session verdicts are not.
  const auto by_name = [](const Verdict& a, const Verdict& b) {
    return a.name < b.name;
  };
  std::sort(got.begin(), got.end(), by_name);
  std::vector<Verdict> want = expected;
  std::sort(want.begin(), want.end(), by_name);
  EXPECT_EQ(got, want)
      << "verdicts must be bitwise identical to an uninterrupted run";
  proxy.stop();
  server.stop();
}

// --- Shard-worker supervision -----------------------------------------------

TEST(Supervision, ShardFailureIsIsolatedAndTyped) {
  constexpr std::size_t kSessions = 4;  // ids 0,2 -> shard 0; 1,3 -> shard 1
  Fixture fx(kSessions, /*attack_session=*/1);
  const std::vector<Verdict> expected = run_monitor_engine(fx);

  std::atomic<std::uint64_t> shard0_batches{0};
  ShardedFleetOptions fopts;
  fopts.shards = 2;
  fopts.worker_fault_hook = [&](std::size_t shard, const FrameBatch&) {
    if (shard == 0 && shard0_batches.fetch_add(1) + 1 == 3) {
      throw std::runtime_error("injected shard fault");
    }
  };
  ShardedFleet fleet(fopts);
  std::vector<std::size_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(fleet.add_session(fx.spec(s)));
  }

  // Feed everything; shard 0 dies early, shard 1 must keep serving.  The
  // queues are deep enough that the whole stream may be enqueued before the
  // worker reaches the poisoned batch, so the loop merely *tolerates*
  // kShardFailed; the typed status is asserted directly below once the
  // failure has landed.
  bool saw_shard_failed = false;
  std::vector<std::vector<std::size_t>> offsets(
      kSessions, std::vector<std::size_t>(fx.channels.size(), 0));
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t c = 0; c < fx.channels.size(); ++c) {
        const Signal& sig = fx.streams[s][c];
        const std::size_t off = offsets[s][c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        const engine::FeedResult r =
            fleet.feed(ids[s], fx.channels[c], SignalView(sig).slice(off, hi));
        if (r.status == FeedStatus::kShardFailed) {
          EXPECT_EQ(s % 2, 0u) << "only shard 0 sessions may fail";
          saw_shard_failed = true;
          offsets[s][c] = sig.frames();  // stop feeding the dead shard
          continue;
        }
        ASSERT_EQ(r.status, FeedStatus::kOk);
        offsets[s][c] = hi;
        if (hi < sig.frames()) more = true;
      }
    }
  }
  // The failure is typed end-to-end: engine status and wire error code.
  ASSERT_TRUE(wait_for([&] { return fleet.stats().failed_shards == 1; }));
  {
    wire::Feed f;
    f.session = ids[0];
    f.channel = fx.channels[0];
    f.frames = Signal(8, 2, 100.0);
    const wire::Message reply = FleetServer::handle(fleet, f);
    ASSERT_TRUE(std::holds_alternative<wire::Error>(reply));
    EXPECT_EQ(std::get<wire::Error>(reply).code,
              wire::ErrorCode::kShardFailed);
  }
  {
    const engine::FeedResult late = fleet.feed(
        ids[0], fx.channels[0], SignalView(fx.streams[0][0]).slice(0, 8));
    EXPECT_EQ(late.status, FeedStatus::kShardFailed);
  }
  (void)saw_shard_failed;

  // flush() must not hang on the dead shard's queue.
  fleet.flush();
  const engine::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.failed_shards, 1u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_TRUE(stats.per_shard[0].failed);
  EXPECT_EQ(stats.per_shard[0].failure_reason, "injected shard fault");
  EXPECT_FALSE(stats.per_shard[1].failed);

  // Shard 1's sessions are bitwise unaffected by shard 0's death.
  EXPECT_EQ(to_verdict(fleet.snapshot(ids[1])), expected[1]);
  EXPECT_EQ(to_verdict(fleet.snapshot(ids[3])), expected[3]);
}

TEST(Supervision, RestartFromCheckpointRecoversBitwise) {
  constexpr std::size_t kSessions = 4;
  Fixture fx(kSessions, /*attack_session=*/1);
  const std::vector<Verdict> expected = run_monitor_engine(fx);
  TempDir ckpt("supervision_ckpt");

  // The fault is armed by the test at a quiescent point, so exactly one
  // batch is lost to the failure and no stale-offset feed can race the
  // restart (a live feeder handles that case by resyncing, as the
  // ReconnectResync and ChaosSoak tests pin — here we want the restart
  // itself to be deterministic).
  std::atomic<bool> armed{false};
  std::atomic<bool> thrown{false};
  ShardedFleetOptions fopts;
  fopts.shards = 2;
  fopts.checkpoint_dir = ckpt.str();
  fopts.checkpoint_every_polls = 1;
  fopts.supervision.restart_from_checkpoint = true;
  fopts.supervision.max_restarts = 3;
  fopts.worker_fault_hook = [&](std::size_t shard, const FrameBatch&) {
    if (shard == 0 && armed.load() && !thrown.exchange(true)) {
      throw std::runtime_error("injected transient fault");
    }
  };
  ShardedFleet fleet(fopts);
  std::vector<std::size_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(fleet.add_session(fx.spec(s)));
  }

  // Feed the first half of every stream and checkpoint it.
  std::vector<std::vector<std::size_t>> offsets(
      kSessions, std::vector<std::size_t>(fx.channels.size(), 0));
  const auto feed_until = [&](auto&& limit) {
    bool more = true;
    while (more) {
      more = false;
      for (std::size_t s = 0; s < kSessions; ++s) {
        for (std::size_t c = 0; c < fx.channels.size(); ++c) {
          const Signal& sig = fx.streams[s][c];
          const std::size_t off = offsets[s][c];
          const std::size_t cap = limit(sig);
          if (off >= cap) continue;
          const std::size_t hi = std::min(off + kChunk, cap);
          const engine::FeedResult r = fleet.feed(
              ids[s], fx.channels[c], SignalView(sig).slice(off, hi));
          ASSERT_EQ(r.status, FeedStatus::kOk);
          offsets[s][c] = hi;
          if (hi < cap) more = true;
        }
      }
    }
  };
  feed_until([](const Signal& sig) { return sig.frames() / 2; });
  fleet.flush();

  // Arm the fault and sacrifice one batch: the worker throws on it, the
  // shard restores from its checkpoint, and the batch's frames vanish —
  // exactly what a crashed shard does to in-flight data.
  armed.store(true);
  {
    const Signal& sig = fx.streams[0][0];
    const std::size_t off = offsets[0][0];
    const std::size_t hi = std::min(off + kChunk, sig.frames());
    (void)fleet.feed(ids[0], fx.channels[0], SignalView(sig).slice(off, hi));
  }
  ASSERT_TRUE(wait_for([&] { return thrown.load(); }))
      << "the injected fault never fired";
  ASSERT_TRUE(wait_for([&] {
    const engine::FleetStats st = fleet.stats();
    return st.failed_shards == 0 && st.per_shard[0].restarts == 1;
  })) << "the shard was not restarted from its checkpoint";

  // Resync like a daemon-restart feeder: the engine's frames_fed cursors
  // are authoritative (the restored checkpoint may predate the half-way
  // flush), then replay the rest and require clean feeds throughout.
  fleet.flush();
  for (std::size_t s = 0; s < kSessions; ++s) {
    const engine::SessionSnapshot snap = fleet.snapshot(ids[s]);
    for (std::size_t c = 0; c < fx.channels.size(); ++c) {
      for (const auto& ch : snap.channels) {
        if (ch.name == fx.channels[c]) offsets[s][c] = ch.frames_fed;
      }
    }
  }
  feed_until([](const Signal& sig) { return sig.frames(); });
  fleet.flush();

  const engine::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.failed_shards, 0u);
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_FALSE(stats.per_shard[0].failed);
  EXPECT_EQ(stats.per_shard[0].restarts, 1u);
  EXPECT_EQ(stats.per_shard[0].failure_reason, "injected transient fault");
  EXPECT_EQ(stats.per_shard[1].restarts, 0u);

  std::vector<Verdict> got;
  for (const auto& snap : fleet.snapshots()) got.push_back(to_verdict(snap));
  EXPECT_EQ(got, expected)
      << "restart-from-checkpoint must replay to bitwise-identical verdicts";
}
