// ResilientWireClient — reconnecting NSFP client with idempotent resync.
//
// WireClient is one socket: any transport failure kills it and the caller
// starts over.  This wrapper owns the *endpoint* instead and survives the
// failures a factory network actually produces — daemon restarts, dropped
// connections, admission-cap busy rejections, stalled links — while
// keeping the stream's detection results bitwise identical to an
// uninterrupted run:
//
//   * Per-call deadlines (WireClientOptions) bound every connect, send
//     and reply wait, so a dead peer costs a timeout, not a hung thread.
//   * Bounded exponential backoff with deterministic seeded jitter
//     between reconnect attempts; kBusy rejections honor the server's
//     retry-after-ms hint.
//   * Automatic reconnect with *idempotent resync*: on a new connection
//     the client re-issues ADD_SESSION for every registered spec (the
//     server re-attaches by name instead of duplicating), then reads the
//     per-channel frames_fed offsets from POLL_STATS and fast-forwards
//     its cursors.  feed() takes the absolute stream offset of its view,
//     so a retried feed sends exactly the suffix the server has not seen:
//     no frame is ever double-counted, no frame is silently skipped.
//
// The exactly-once invariant requires a lossless queue policy on the
// server (kBlock, the default) and a single feeder per (session, channel)
// stream — both are the deployment the daemon documents.  When the server
// *lost* frames (restart restored an older checkpoint), feed() reports
// `rewound` with the authoritative cursor and the caller re-feeds from
// there, which is the same contract fleet_monitor implements against a
// `--resume`d daemon.
//
// One client drives one logical stream set from one thread; the class is
// not thread-safe.
#ifndef NSYNC_ENGINE_RESILIENT_CLIENT_HPP
#define NSYNC_ENGINE_RESILIENT_CLIENT_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "engine/wire_client.hpp"

namespace nsync::engine {

/// Where the daemon lives: a UDS path (when non-empty) or a loopback TCP
/// port.
struct WireEndpoint {
  std::string uds_path;
  std::uint16_t tcp_port = 0;
};

struct ResilientClientOptions {
  /// Per-connection deadlines, forwarded to every underlying WireClient.
  WireClientOptions io{/*connect_timeout_ms=*/2000, /*io_timeout_ms=*/10000};
  /// Reconnect/retry attempts per call before the failure propagates.
  std::size_t max_attempts = 8;
  /// Exponential backoff between attempts: delay k is drawn uniformly
  /// from [d/2, d] with d = min(cap, base << k) — "equal jitter", so
  /// reconnect storms decorrelate but the delay stays bounded.
  std::uint32_t backoff_base_ms = 10;
  std::uint32_t backoff_cap_ms = 1000;
  /// Seed of the jitter stream; equal seeds reproduce equal schedules
  /// (deterministic tests and benches).
  std::uint64_t jitter_seed = 1;
  std::string client_name = "resilient-client";
};

class ResilientWireClient {
 public:
  ResilientWireClient(WireEndpoint endpoint,
                      ResilientClientOptions options = {});

  ResilientWireClient(const ResilientWireClient&) = delete;
  ResilientWireClient& operator=(const ResilientWireClient&) = delete;
  ResilientWireClient(ResilientWireClient&&) = default;
  ResilientWireClient& operator=(ResilientWireClient&&) = delete;

  /// Forces a (re)connect + handshake now and returns the server's HELLO
  /// reply (fleet summary).  Normally lazy: every call connects on
  /// demand.
  wire::HelloOk connect_now();

  /// Registers a session spec and returns its stable handle.  The handle
  /// is the server id at first registration and stays valid across
  /// reconnects even if the server assigns a different id on re-attach.
  /// Re-attaching to a resumed daemon picks up the existing session and
  /// its frames_fed cursors (see acked()).
  std::uint64_t add_session(const SessionSpec& spec);

  struct FeedOutcome {
    wire::FeedOk ok{};       ///< reply of the final send (zero if skipped)
    std::size_t cursor = 0;  ///< authoritative next-frame offset after this
    /// The server holds *fewer* frames than `offset` (it restarted from an
    /// older checkpoint): nothing was sent; re-feed from `cursor`.
    bool rewound = false;
  };

  /// Feeds `frames`, whose first frame sits at absolute stream offset
  /// `offset` of this (session, channel).  Retries through reconnects;
  /// the resynced cursor decides how much of the view is actually sent
  /// (possibly nothing — already applied — or a suffix).  Throws
  /// WireError for typed server errors and std::runtime_error once
  /// max_attempts transport failures are exhausted.
  FeedOutcome feed(std::uint64_t session, const std::string& channel,
                   const nsync::signal::SignalView& frames,
                   std::size_t offset);

  /// Frames of this channel the server has acknowledged — the caller's
  /// feed cursor.  Updated by every successful feed and every resync.
  [[nodiscard]] std::size_t acked(std::uint64_t session,
                                  const std::string& channel) const;

  /// Re-reads every registered session's frames_fed offsets from the
  /// server (POLL_STATS) without waiting for a reconnect — used after
  /// attaching to a resumed daemon.
  void refresh_offsets();

  wire::Stats poll_stats(bool include_sessions = false);

  struct Telemetry {
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;         ///< connects beyond the first
    std::uint64_t transport_errors = 0;   ///< failures that forced a retry
    std::uint64_t busy_backoffs = 0;      ///< kBusy admission rejections
    std::uint64_t fast_forwarded_frames = 0;  ///< frames skipped on resync
    std::uint64_t rewinds = 0;            ///< server-lost-frames outcomes
  };
  [[nodiscard]] const Telemetry& telemetry() const { return telemetry_; }

  /// Jitter schedule entry for attempt k (consumes one RNG draw) —
  /// exposed so tests can pin determinism and bounds.
  [[nodiscard]] std::uint32_t backoff_delay_ms(std::size_t attempt);

 private:
  struct SessionState {
    std::uint64_t handle = 0;     ///< public id (server id at registration)
    std::uint64_t server_id = 0;  ///< current server-side id
    SessionSpec spec;
    bool evicted = false;
    std::map<std::string, std::size_t> acked;  ///< channel → frames acked
  };

  /// Connects (with backoff) and resyncs if not already connected.
  void ensure_connected();
  /// Re-registers every live session and refreshes acked offsets.
  /// Requires a live conn_.
  void resync();
  void sync_offsets();
  void handle_transport_error(std::size_t& attempt, const char* what);
  SessionState& state(std::uint64_t handle);
  const SessionState& state(std::uint64_t handle) const;

  WireEndpoint endpoint_;
  ResilientClientOptions options_;
  std::optional<WireClient> conn_;
  wire::HelloOk last_hello_;
  std::vector<SessionState> sessions_;
  std::mt19937_64 rng_;
  Telemetry telemetry_;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_RESILIENT_CLIENT_HPP
