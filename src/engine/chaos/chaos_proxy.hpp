// ChaosProxy — seeded fault-injecting relay for resilience tests.
//
// Sits between an NSFP client and the fleet daemon on Unix-domain
// sockets and forwards bytes while injecting the transport faults the
// resilience layer must survive: partial writes (bytes trickle through in
// small chunks, exercising hostile re-chunking on both decoders), delayed
// reads, and seeded mid-frame disconnects (a chunk is cut at a random
// byte and both sides are severed — the client sees a half-written frame
// vanish).  kill_active() severs every live link on demand for
// deterministic "daemon connection lost" moments in benches.
//
// All randomness derives from (options.seed, connection index), so a
// chaos soak is reproducible run-to-run.  This is test/bench
// infrastructure: it lives in its own library, nsync_chaos_proxy, built
// only with the tests or benches and never installed, so the soak tests
// and bench_ext_resilience can share it without shipping it.
#ifndef NSYNC_ENGINE_CHAOS_CHAOS_PROXY_HPP
#define NSYNC_ENGINE_CHAOS_CHAOS_PROXY_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace nsync::engine {

struct ChaosProxyOptions {
  std::string listen_uds;   ///< where clients connect
  std::string backend_uds;  ///< the real daemon socket
  std::uint64_t seed = 1;
  /// Per-forwarded-chunk probability of a mid-frame disconnect: a random
  /// prefix of the chunk is delivered, then both sides are severed.
  double drop_prob = 0.0;
  /// Per-chunk probability of sleeping before forwarding (delayed reads).
  double delay_prob = 0.0;
  std::uint32_t max_delay_ms = 5;
  /// Forward at most this many bytes per read — partial writes / hostile
  /// chunking.  Must be >= 1.
  std::size_t max_chunk = 512;
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds listen_uds and starts relaying.  Throws on socket failure.
  void start();
  /// Severs all links, stops accepting and joins all threads.  Idempotent.
  void stop();

  /// Severs every live client↔backend link now (both directions);
  /// returns how many links were cut.  The proxy keeps accepting new
  /// connections, so reconnecting clients get a fresh link.
  std::size_t kill_active();

  [[nodiscard]] std::uint64_t connections() const { return connections_.load(); }
  /// Mid-frame disconnects injected by drop_prob (kill_active not counted).
  [[nodiscard]] std::uint64_t chaos_drops() const { return chaos_drops_.load(); }

 private:
  struct Link {
    int client_fd = -1;
    int backend_fd = -1;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void pump(Link& link, std::uint64_t conn_index);
  void reap_finished_locked();

  ChaosProxyOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> chaos_drops_{0};
  std::thread accept_thread_;
  std::mutex links_mu_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_CHAOS_CHAOS_PROXY_HPP
