// WireClient — blocking NSFP client for the fleet daemon.
//
// One connection, synchronous request/reply.  The typed helpers (hello,
// add_session, feed, poll_stats, evict) unwrap the expected reply
// and throw WireError when the daemon answers with a typed ERROR, so
// callers see `catch (const WireError& e) { e.code() ... }` instead of
// decoding frames by hand.  Transport failures and framing violations
// throw plain std::runtime_error — after either, the connection is
// unusable.  With WireClientOptions deadlines set, a connect or a whole
// request/reply exchange that cannot complete in time throws WireTimeout
// (a runtime_error, so existing catch sites still work) and closes the
// connection.  ResilientWireClient (resilient_client.hpp) layers
// reconnect + idempotent resync on top of this class.
#ifndef NSYNC_ENGINE_WIRE_CLIENT_HPP
#define NSYNC_ENGINE_WIRE_CLIENT_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "engine/monitor_engine.hpp"
#include "engine/wire_protocol.hpp"

namespace nsync::engine {

/// The daemon replied with a typed ERROR frame.
class WireError : public std::runtime_error {
 public:
  WireError(wire::ErrorCode code, const std::string& message,
            std::uint32_t retry_after_ms = 0)
      : std::runtime_error(wire::error_code_name(code) + ": " + message),
        code_(code),
        retry_after_ms_(retry_after_ms) {}

  [[nodiscard]] wire::ErrorCode code() const { return code_; }
  /// Server back-off hint (kBusy admission rejections); 0 = none.
  [[nodiscard]] std::uint32_t retry_after_ms() const { return retry_after_ms_; }

 private:
  wire::ErrorCode code_;
  std::uint32_t retry_after_ms_;
};

/// A connect or request deadline expired.  The connection is closed.
class WireTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct WireClientOptions {
  /// Deadline for establishing the connection; 0 = OS default (blocking).
  std::uint32_t connect_timeout_ms = 0;
  /// Per-call deadline covering the request write and the reply read;
  /// 0 = wait indefinitely.
  std::uint32_t io_timeout_ms = 0;
};

class WireClient {
 public:
  /// Connects to a Unix-domain socket.  Throws std::runtime_error
  /// (WireTimeout past a connect deadline).
  [[nodiscard]] static WireClient connect_uds(const std::string& path,
                                              WireClientOptions options = {});
  /// Connects to 127.0.0.1:port.  Throws std::runtime_error.
  [[nodiscard]] static WireClient connect_tcp(std::uint16_t port,
                                              WireClientOptions options = {});

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&&) = delete;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient();

  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends one request frame and blocks for one reply frame.
  [[nodiscard]] wire::Message request(const wire::Message& req);

  // Typed helpers: return the OK reply or throw WireError / runtime_error.
  wire::HelloOk hello(const std::string& client_name);
  wire::AddSessionOk add_session(const SessionSpec& spec);
  wire::FeedOk feed(std::uint64_t session, const std::string& channel,
                    const nsync::signal::SignalView& frames);
  wire::Stats poll_stats(bool include_sessions = false);
  void evict(std::uint64_t session);

 private:
  WireClient(int fd, WireClientOptions options)
      : fd_(fd), options_(options) {}

  int fd_ = -1;
  WireClientOptions options_;
  wire::FrameDecoder decoder_;
};

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_WIRE_CLIENT_HPP
