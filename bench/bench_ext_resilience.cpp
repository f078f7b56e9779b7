// Extension experiment (beyond the paper): cost of the fleet-service
// resilience layer under transport faults and overload.
//
// Part A — reconnect recovery.  A ResilientWireClient streams a session
// through a proxy whose active connection is severed K times mid-stream.
// The timed quantity is the first feed() call after each kill: it absorbs
// peer-gone detection, jittered backoff, reconnect, HELLO, idempotent
// re-ADD_SESSION and the frames_fed resync — i.e. the full wall-clock gap
// an acquisition host sees before its stream is flowing again.
//
// Part B — poll latency isolation.  One well-behaved client measures
// POLL_STATS round-trip latency twice: against an idle daemon, then with a
// slow consumer attached (a peer that floods PINGs and never drains its
// replies, wedging its connection's writer until the write deadline
// closes it).  Thread-per-connection plus bounded writes should keep the
// well-behaved client's p99 flat; this experiment pins that claim.
//
// Flags: --kills n    proxy kills in part A (default 5)
//        --polls n    latency samples per part-B phase (default 400)
//        --frames n   observed frames per channel (default 4096)
//        --json path  machine-readable results (BENCH_resilience.json)
//        --context k=v  extra provenance for the JSON context block
//                     (repeatable; run_benches.sh passes git_sha and
//                     build_type)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/nsync.hpp"
#include "engine/chaos/chaos_proxy.hpp"
#include "engine/fleet_server.hpp"
#include "engine/resilient_client.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_client.hpp"
#include "eval/table.hpp"
#include "runtime/thread_pool.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

namespace {

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  constexpr double kPi = 3.14159265358979323846;
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    const double t = static_cast<double>(n) / 100.0;
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0 + 0.7 * std::sin(2.0 * kPi * (0.5 + 0.010 * t) * t);
    s(n, 1) = lp1 + 0.7 * std::cos(2.0 * kPi * (0.4 + 0.008 * t) * t);
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

core::NsyncConfig dwm_config() {
  core::NsyncConfig cfg;
  cfg.sync = core::SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 1.0;
  return cfg;
}

engine::SessionSpec make_spec(const std::string& name,
                              const std::vector<std::string>& channels,
                              const std::vector<Signal>& references) {
  core::Thresholds loose;
  loose.c_c = 1e9;
  loose.h_c = 1e9;
  loose.v_c = 1e9;
  engine::SessionSpec sp;
  sp.name = name;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    engine::ChannelSpec ch;
    ch.name = channels[c];
    ch.reference = references[c];
    ch.config = dwm_config();
    ch.thresholds = loose;
    sp.channels.push_back(std::move(ch));
  }
  return sp;
}

std::string unique_path(const std::string& tag) {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("nsync_bench_resil_" + tag + "_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter++)))
      .string();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return (1.0 - frac) * v[lo] + frac * v[hi];
}

/// A consumer that sends PING frames without ever reading the replies,
/// wedging its connection's writer on the server until the write deadline
/// fires.  Returns the number of frames it managed to queue.
std::size_t attach_slow_consumer(std::uint16_t port, int& fd_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  // A tiny receive buffer keeps the TCP window small, so the server's
  // reply stream wedges after a handful of unread pongs.
  int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return 0;
  }
  const std::vector<std::uint8_t> ping =
      engine::wire::encode(engine::wire::Ping{0xB0B0B0B0B0B0B0B0ull});
  std::size_t sent = 0;
  for (std::size_t i = 0; i < 200000; ++i) {
    if (::send(fd, ping.data(), ping.size(), MSG_DONTWAIT | MSG_NOSIGNAL) !=
        static_cast<ssize_t>(ping.size())) {
      break;
    }
    ++sent;
  }
  fd_out = fd;
  return sent;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t kills = 5;
  std::size_t polls = 400;
  std::size_t frames_per_channel = 4096;
  std::string json_path;
  bench::Context context;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--kills") {
      kills = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--polls") {
      polls = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--frames") {
      frames_per_channel = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--context") {
      context.add(next());
    } else if (arg == "--threads") {
      nsync::runtime::set_worker_count(
          static_cast<std::size_t>(std::stoul(next())));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--kills n] [--polls n] [--frames n] [--json path]"
                   " [--threads n] [--context key=value]...\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }

  const std::vector<std::string> channels = {"ACC", "AUD"};
  std::vector<Signal> references;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    references.push_back(make_reference(frames_per_channel, 100 + c));
  }
  std::vector<Signal> streams;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    streams.push_back(benign_observation(references[c], 1000 + c));
  }
  constexpr std::size_t kChunk = 160;

  std::cout << "EXTENSION: fleet-service resilience layer\n"
            << "(" << frames_per_channel << " frames/channel, " << kills
            << " proxy kills, " << polls << " latency samples/phase)\n\n";

  // --- Part A: reconnect recovery time ------------------------------------
  std::vector<double> recovery_ms;
  {
    const std::string backend = unique_path("backend") + ".sock";
    const std::string front = unique_path("front") + ".sock";
    engine::ShardedFleetOptions fopts;
    fopts.shards = 2;
    engine::ShardedFleet fleet(fopts);
    engine::FleetServerOptions sopts;
    sopts.uds_path = backend;
    engine::FleetServer server(fleet, sopts);
    server.start();
    engine::ChaosProxyOptions popts;
    popts.listen_uds = front;
    popts.backend_uds = backend;
    popts.seed = 7;
    engine::ChaosProxy proxy(popts);
    proxy.start();

    engine::ResilientClientOptions copts;
    copts.client_name = "bench-resilience";
    copts.max_attempts = 50;
    copts.backoff_base_ms = 1;
    copts.backoff_cap_ms = 20;
    copts.jitter_seed = 7;
    engine::ResilientWireClient client(engine::WireEndpoint{front, 0}, copts);
    const std::uint64_t handle =
        client.add_session(make_spec("printer-A", channels, references));

    // Feed round-robin; sever the live connection every few rounds and
    // time the feed that rides through the reconnect.
    std::vector<std::size_t> offsets(channels.size(), 0);
    const std::size_t total_rounds =
        (frames_per_channel + kChunk - 1) / kChunk;
    const std::size_t kill_every = std::max<std::size_t>(
        1, total_rounds / std::max<std::size_t>(kills + 1, 1));
    std::size_t round = 0;
    bool more = true;
    while (more) {
      more = false;
      const bool kill_now =
          round > 0 && round % kill_every == 0 &&
          recovery_ms.size() < kills;
      if (kill_now) proxy.kill_active();
      for (std::size_t c = 0; c < channels.size(); ++c) {
        const Signal& sig = streams[c];
        const std::size_t off = offsets[c];
        if (off >= sig.frames()) continue;
        const std::size_t hi = std::min(off + kChunk, sig.frames());
        const auto t0 = std::chrono::steady_clock::now();
        const auto out =
            client.feed(handle, channels[c], SignalView(sig).slice(off, hi),
                        off);
        const auto t1 = std::chrono::steady_clock::now();
        if (kill_now && c == 0) {
          recovery_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        offsets[c] = out.cursor;
        if (out.cursor < sig.frames()) more = true;
      }
      ++round;
    }
    fleet.flush();
    const auto tel = client.telemetry();
    std::cout << "Part A: reconnect recovery (feed latency through a "
                 "severed connection)\n";
    eval::AsciiTable table({"Kill", "Recovery ms"});
    for (std::size_t i = 0; i < recovery_ms.size(); ++i) {
      table.add_row({std::to_string(i + 1), eval::fmt(recovery_ms[i], 2)});
    }
    table.print(std::cout);
    std::cout << "(reconnects=" << tel.reconnects
              << ", transport_errors=" << tel.transport_errors
              << ", fast_forwarded_frames=" << tel.fast_forwarded_frames
              << ")\n\n";
    proxy.stop();
    server.stop();
  }

  // --- Part B: poll latency isolation under a slow consumer ---------------
  std::vector<double> base_us, slow_us;
  std::size_t write_timeouts = 0;
  {
    engine::ShardedFleetOptions fopts;
    fopts.shards = 2;
    engine::ShardedFleet fleet(fopts);
    const std::size_t id =
        fleet.add_session(make_spec("printer-B", channels, references));
    for (std::size_t c = 0; c < channels.size(); ++c) {
      fleet.feed(id, channels[c], SignalView(streams[c]));
    }
    fleet.flush();

    // TCP with a kernel-assigned port: the slow consumer needs a small
    // SO_RCVBUF to keep its TCP window (and thus the server's reply
    // headroom) tiny, which has no UDS equivalent.
    engine::FleetServerOptions sopts;
    sopts.tcp_port = 0;
    sopts.write_timeout_ms = 200;
    engine::FleetServer server(fleet, sopts);
    server.start();

    engine::WireClient poller =
        engine::WireClient::connect_tcp(server.bound_tcp_port());
    (void)poller.hello("bench-poller");
    auto measure = [&](std::vector<double>& out) {
      for (std::size_t i = 0; i < polls; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)poller.poll_stats(true);
        const auto t1 = std::chrono::steady_clock::now();
        out.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    };
    measure(base_us);

    int slow_fd = -1;
    const std::size_t queued =
        attach_slow_consumer(server.bound_tcp_port(), slow_fd);
    // Give the server's reply stream time to fill the consumer's tiny
    // window and wedge its writer mid-deadline, so the samples below are
    // taken while a connection thread is actually blocked on POLLOUT.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    measure(slow_us);
    // The write deadline must then fire and close the wedged connection.
    const auto wedge_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().write_timeouts == 0 &&
           std::chrono::steady_clock::now() < wedge_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    write_timeouts = server.stats().write_timeouts;
    if (slow_fd >= 0) ::close(slow_fd);

    std::cout << "Part B: POLL_STATS latency, idle vs slow consumer attached\n";
    eval::AsciiTable table({"Phase", "p50 us", "p99 us", "max us"});
    table.add_row({"idle", eval::fmt(percentile(base_us, 0.50), 1),
                   eval::fmt(percentile(base_us, 0.99), 1),
                   eval::fmt(percentile(base_us, 1.0), 1)});
    table.add_row({"slow consumer", eval::fmt(percentile(slow_us, 0.50), 1),
                   eval::fmt(percentile(slow_us, 0.99), 1),
                   eval::fmt(percentile(slow_us, 1.0), 1)});
    table.print(std::cout);
    std::cout << "(slow consumer queued " << queued
              << " unread pings; server write timeouts: " << write_timeouts
              << ")\n";
    server.stop();
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"resilience\",\n  ";
    context.write(out, "\"reps\": 1");
    out << ",\n  \"frames_per_channel\": " << frames_per_channel << ",\n  \"reconnect\": {\n    \"kills\": "
        << recovery_ms.size() << ",\n    \"recovery_ms\": [";
    for (std::size_t i = 0; i < recovery_ms.size(); ++i) {
      out << (i ? ", " : "") << recovery_ms[i];
    }
    out << "],\n    \"median_ms\": " << percentile(recovery_ms, 0.5)
        << ",\n    \"max_ms\": " << percentile(recovery_ms, 1.0)
        << "\n  },\n  \"poll_latency\": {\n    \"samples\": " << polls
        << ",\n    \"idle\": {\"p50_us\": " << percentile(base_us, 0.5)
        << ", \"p99_us\": " << percentile(base_us, 0.99)
        << "},\n    \"with_slow_consumer\": {\"p50_us\": "
        << percentile(slow_us, 0.5)
        << ", \"p99_us\": " << percentile(slow_us, 0.99)
        << "},\n    \"write_timeouts\": " << write_timeouts
        << "\n  }\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
