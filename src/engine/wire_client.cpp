#include "engine/wire_client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace nsync::engine {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Remaining milliseconds until `deadline`, or -1 (poll forever) when no
/// deadline is set.  Throws WireTimeout once the deadline has passed.
int wait_budget_ms(bool has_deadline, Clock::time_point deadline,
                   const char* what) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) throw WireTimeout(std::string("WireClient: ") + what);
  return static_cast<int>(left.count());
}

/// Connects `fd` to `addr`, bounded by connect_timeout_ms when non-zero
/// (non-blocking connect + poll + SO_ERROR).  The fd is left non-blocking
/// either way; request() does its own poll-based waiting.
void connect_with_deadline(int fd, const sockaddr* addr, socklen_t addr_len,
                           std::uint32_t timeout_ms, const std::string& where) {
  set_nonblocking(fd);
  if (::connect(fd, addr, addr_len) == 0) return;
  if (errno != EINPROGRESS && errno != EAGAIN) {
    throw_errno("WireClient: connect(" + where + ")");
  }
  const bool has_deadline = timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready = ::poll(
        &pfd, 1, wait_budget_ms(has_deadline, deadline, "connect timed out"));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("WireClient: poll(connect " + where + ")");
    }
    if (ready == 0) {
      throw WireTimeout("WireClient: connect(" + where + ") timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      throw_errno("WireClient: getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      throw_errno("WireClient: connect(" + where + ")");
    }
    return;
  }
}

}  // namespace

WireClient WireClient::connect_uds(const std::string& path,
                                   WireClientOptions options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("WireClient: UDS path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("WireClient: socket()");
  try {
    connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr), options.connect_timeout_ms, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return WireClient(fd, options);
}

WireClient WireClient::connect_tcp(std::uint16_t port,
                                   WireClientOptions options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("WireClient: socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  try {
    connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr), options.connect_timeout_ms,
                          "127.0.0.1:" + std::to_string(port));
  } catch (...) {
    ::close(fd);
    throw;
  }
  return WireClient(fd, options);
}

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      decoder_(std::move(other.decoder_)) {}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

wire::Message WireClient::request(const wire::Message& req) {
  if (fd_ < 0) throw std::runtime_error("WireClient: not connected");
  const bool has_deadline = options_.io_timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.io_timeout_ms);
  const auto timed_out = [this](const char* what) -> std::runtime_error {
    close();
    return WireTimeout(std::string("WireClient: ") + what);
  };

  const std::vector<std::uint8_t> bytes = wire::encode(req);
  const std::uint8_t* data = bytes.data();
  std::size_t n_left = bytes.size();
  while (n_left > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t w = ::send(fd_, data, n_left, MSG_NOSIGNAL);
#else
    const ssize_t w = ::write(fd_, data, n_left);
#endif
    if (w > 0) {
      data += w;
      n_left -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      int budget = -1;
      try {
        budget = wait_budget_ms(has_deadline, deadline, "request timed out");
      } catch (const WireTimeout&) {
        throw timed_out("request timed out (send)");
      }
      const int ready = ::poll(&pfd, 1, budget);
      if (ready < 0 && errno != EINTR) {
        close();
        throw std::runtime_error("WireClient: poll(send) failed");
      }
      if (ready == 0 && has_deadline) {
        throw timed_out("request timed out (send)");
      }
      continue;
    }
    close();
    throw std::runtime_error("WireClient: send failed (peer gone)");
  }

  std::uint8_t rx[64 * 1024];
  for (;;) {
    wire::Message reply;
    std::string detail;
    const wire::DecodeStatus st = decoder_.next(reply, &detail);
    if (st == wire::DecodeStatus::kFrame) return reply;
    if (st != wire::DecodeStatus::kNeedMore) {
      close();
      throw std::runtime_error("WireClient: protocol violation from server: " +
                               wire::decode_status_name(st) +
                               (detail.empty() ? "" : " (" + detail + ")"));
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int budget = -1;
    try {
      budget = wait_budget_ms(has_deadline, deadline, "request timed out");
    } catch (const WireTimeout&) {
      throw timed_out("request timed out (reply)");
    }
    const int ready = ::poll(&pfd, 1, budget);
    if (ready < 0) {
      if (errno == EINTR) continue;
      close();
      throw std::runtime_error("WireClient: poll(recv) failed");
    }
    if (ready == 0) {
      if (has_deadline) throw timed_out("request timed out (reply)");
      continue;
    }
    const ssize_t n = ::read(fd_, rx, sizeof(rx));
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) {
      close();
      throw std::runtime_error("WireClient: connection closed by server");
    }
    decoder_.feed(
        std::span<const std::uint8_t>(rx, static_cast<std::size_t>(n)));
  }
}

namespace {

/// Unwraps the expected reply type; ERROR replies become WireError and
/// anything else (a server bug) a runtime_error.
template <typename Ok>
Ok expect(wire::Message&& reply) {
  if (auto* ok = std::get_if<Ok>(&reply)) return std::move(*ok);
  if (const auto* err = std::get_if<wire::Error>(&reply)) {
    throw WireError(err->code, err->message, err->retry_after_ms);
  }
  throw std::runtime_error("WireClient: unexpected reply type");
}

}  // namespace

wire::HelloOk WireClient::hello(const std::string& client_name) {
  wire::Hello h;
  h.client = client_name;
  return expect<wire::HelloOk>(request(h));
}

wire::AddSessionOk WireClient::add_session(const SessionSpec& spec) {
  wire::AddSession m;
  m.spec = spec;
  return expect<wire::AddSessionOk>(request(m));
}

wire::FeedOk WireClient::feed(std::uint64_t session, const std::string& channel,
                              const nsync::signal::SignalView& frames) {
  wire::Feed m;
  m.session = session;
  m.channel = channel;
  m.frames = frames.to_signal();
  return expect<wire::FeedOk>(request(m));
}

wire::Stats WireClient::poll_stats(bool include_sessions) {
  wire::PollStats m;
  m.include_sessions = include_sessions ? 1 : 0;
  return expect<wire::Stats>(request(m));
}

void WireClient::evict(std::uint64_t session) {
  wire::Evict m;
  m.session = session;
  expect<wire::EvictOk>(request(m));
}

}  // namespace nsync::engine
