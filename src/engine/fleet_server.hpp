// FleetServer — serves the NSFP frame-ingest protocol over a socket.
//
// One server fronts one ShardedFleet.  It listens on a Unix-domain socket
// (the default deployment: acquisition host and daemon on the same
// machine) or a localhost TCP port, accepts any number of client
// connections, and dispatches decoded requests straight into the fleet.
// The socket threads are pure ingest: all detection work still happens on
// the fleet's shard workers, so a slow client never stalls a shard and a
// saturated shard pushes back through the queue policy (FEED replies carry
// shed/queued counts; kReject surfaces as an OVERLOADED error reply).
//
// Error discipline mirrors FrameDecoder: frame-local failures (unknown
// type, malformed payload, unknown session/channel, overload) get a typed
// ERROR reply and the connection continues; stream-poisoning failures (bad
// magic/version/CRC/length) get a final ERROR reply and the connection is
// closed, because the byte stream can no longer be trusted.
//
// Connection loop: each connection thread blocks in read() (SO_RCVTIMEO
// ticks of 100 ms, shorter near the idle deadline), answers every complete
// frame that read delivered, writes all the replies with one send(), and
// only then wakes the shard workers its FEEDs went to
// (ShardedFleet::DeferredWakes).  A FEED_OK still means "accepted into the
// shard's queue".
//
// Resilience (deadline I/O): reads and writes run under configurable
// deadlines; a reply send that would block parks in poll(POLLOUT) after
// waking the read's shards.  A connection that stays silent past
// idle_timeout_ms is reaped (half-open clients no longer leak a thread and
// an fd forever), a reply write that cannot complete within
// write_timeout_ms closes the slow consumer instead of wedging its thread,
// and an admission cap (max_connections) answers excess connects with a
// typed kBusy error carrying a retry-after-ms hint.  All of it is
// accounted in FleetServerStats.
#ifndef NSYNC_ENGINE_FLEET_SERVER_HPP
#define NSYNC_ENGINE_FLEET_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_fleet.hpp"
#include "engine/wire_protocol.hpp"

namespace nsync::engine {

struct FleetServerOptions {
  /// Unix-domain socket path.  Takes precedence over tcp_port; an
  /// existing socket file at this path is unlinked before binding.
  std::string uds_path;
  /// When uds_path is empty and this is non-zero, listen on
  /// 127.0.0.1:tcp_port instead.
  std::uint16_t tcp_port = 0;
  int backlog = 16;
  /// Idle-read deadline per connection in milliseconds: a client that
  /// sends nothing for this long (dead peer, half-open TCP, stalled
  /// byte-at-a-time writer) is reaped.  0 disables the deadline.
  std::uint32_t idle_timeout_ms = 0;
  /// Bounded write deadline per reply in milliseconds: a consumer that
  /// cannot drain a reply within this long is closed instead of wedging
  /// the connection thread forever.  0 waits indefinitely.
  std::uint32_t write_timeout_ms = 0;
  /// Admission cap: when non-zero, a connect beyond this many live
  /// connections is answered with a typed kBusy error (carrying
  /// busy_retry_after_ms) and closed.  0 = unlimited.
  std::size_t max_connections = 0;
  /// Retry-after hint attached to kBusy admission rejections.
  std::uint32_t busy_retry_after_ms = 250;
  /// Backoff slept after a persistent accept() error (e.g. EMFILE) so the
  /// accept loop cannot hot-spin while the condition lasts.
  std::uint32_t accept_error_backoff_ms = 20;
};

/// Monotonic transport-level counters (detection work is accounted in
/// FleetStats; these cover the socket layer the fleet sits behind).
struct FleetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_busy_rejected = 0;  ///< admission-cap refusals
  std::uint64_t accept_errors = 0;              ///< accept() failures
  std::uint64_t idle_reaped = 0;     ///< connections closed by idle deadline
  std::uint64_t write_timeouts = 0;  ///< slow consumers closed mid-write
  std::uint64_t reads = 0;        ///< connection read()s that returned bytes
  std::uint64_t reply_sends = 0;  ///< reply send()s that wrote bytes
  std::size_t open_connections = 0;  ///< live connection threads right now
};

/// Accepts NSFP connections and applies their requests to a ShardedFleet.
class FleetServer {
 public:
  /// The fleet must outlive the server.
  FleetServer(ShardedFleet& fleet, FleetServerOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Binds, listens and starts the accept thread.  Throws
  /// std::runtime_error on socket/bind/listen failure.
  void start();

  /// Stops accepting, closes every connection and joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Bound TCP port (useful with tcp_port = 0 → kernel-assigned).
  [[nodiscard]] std::uint16_t bound_tcp_port() const { return bound_port_; }

  /// Snapshot of the transport-level counters.
  [[nodiscard]] FleetServerStats stats() const;

  /// Maps one decoded request onto the fleet and returns the reply
  /// message.  Pure dispatch — no socket involved — so tests can exercise
  /// the full request surface without a transport.  Takes the request by
  /// value: an ADD_SESSION spec moves into the fleet and FEED frames into
  /// the shard queue, so a caller that moves its request in copies
  /// neither.
  [[nodiscard]] static wire::Message handle(ShardedFleet& fleet,
                                            wire::Message request);

 private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked();
  /// Deadline-bounded full-buffer write; releases `wakes` before it waits
  /// for the peer, counts a write timeout and returns false when the
  /// consumer cannot drain in time.
  bool write_reply(int fd, const std::vector<std::uint8_t>& bytes,
                   ShardedFleet::DeferredWakes& wakes);

  ShardedFleet& fleet_;
  FleetServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> connections_accepted_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> write_timeouts_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> reply_sends_{0};
  std::thread accept_thread_;
  mutable std::mutex conns_mu_;
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> conns_;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_FLEET_SERVER_HPP
