#include "engine/chaos/chaos_proxy.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>

namespace nsync::engine {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_uds_fd(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("ChaosProxy: UDS path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("ChaosProxy: socket()");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw_errno("ChaosProxy: connect(" + path + ")");
  }
  return fd;
}

/// Blocking full write of [data, data+n); false when the peer is gone.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
#else
    const ssize_t w = ::write(fd, data, n);
#endif
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void sever(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)) {
  if (options_.max_chunk == 0) options_.max_chunk = 1;
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  if (listen_fd_ >= 0) return;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.listen_uds.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("ChaosProxy: UDS path too long: " +
                             options_.listen_uds);
  }
  std::strncpy(addr.sun_path, options_.listen_uds.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.listen_uds.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("ChaosProxy: socket()");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("ChaosProxy: bind(" + options_.listen_uds + ")");
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("ChaosProxy: listen()");
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true);
  // shutdown() wakes the blocked accept(); the fd is closed and cleared
  // only after the accept thread, which reads listen_fd_, has joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  kill_active();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Link>> links;
  {
    const std::lock_guard<std::mutex> lock(links_mu_);
    links.swap(links_);
  }
  for (auto& l : links) {
    if (l->thread.joinable()) l->thread.join();
    if (l->client_fd >= 0) ::close(l->client_fd);
    if (l->backend_fd >= 0) ::close(l->backend_fd);
  }
  ::unlink(options_.listen_uds.c_str());
}

std::size_t ChaosProxy::kill_active() {
  const std::lock_guard<std::mutex> lock(links_mu_);
  std::size_t cut = 0;
  for (auto& l : links_) {
    if (l->done->load()) continue;
    sever(l->client_fd);
    sever(l->backend_fd);
    ++cut;
  }
  return cut;
}

void ChaosProxy::reap_finished_locked() {
  for (auto it = links_.begin(); it != links_.end();) {
    if ((*it)->done->load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      // fds are closed only here, after the pump thread has joined, so
      // kill_active() can never shutdown() a recycled descriptor.
      if ((*it)->client_fd >= 0) ::close((*it)->client_fd);
      if ((*it)->backend_fd >= 0) ::close((*it)->backend_fd);
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosProxy::accept_loop() {
  while (!stopping_.load()) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;
    }
    int backend_fd = -1;
    try {
      backend_fd = connect_uds_fd(options_.backend_uds);
    } catch (const std::exception&) {
      // Backend down: the client simply sees its connection drop, which
      // is exactly the fault the resilience layer handles.
      ::close(client_fd);
      continue;
    }
    const std::uint64_t index = connections_.fetch_add(1);
    const std::lock_guard<std::mutex> lock(links_mu_);
    reap_finished_locked();
    auto link = std::make_unique<Link>();
    link->client_fd = client_fd;
    link->backend_fd = backend_fd;
    link->done = std::make_shared<std::atomic<bool>>(false);
    Link* raw = link.get();
    link->thread = std::thread([this, raw, index] { pump(*raw, index); });
    links_.push_back(std::move(link));
  }
}

void ChaosProxy::pump(Link& link, std::uint64_t conn_index) {
  // Deterministic per-connection fault schedule.
  std::mt19937_64 rng(options_.seed * 0x9E3779B97F4A7C15ull + conn_index);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::uint8_t> buf(options_.max_chunk);

  bool alive = true;
  while (alive && !stopping_.load()) {
    pollfd pfds[2];
    pfds[0] = {link.client_fd, POLLIN, 0};
    pfds[1] = {link.backend_fd, POLLIN, 0};
    const int ready = ::poll(pfds, 2, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (int i = 0; i < 2 && alive; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int src = (i == 0) ? link.client_fd : link.backend_fd;
      const int dst = (i == 0) ? link.backend_fd : link.client_fd;
      const ssize_t n = ::read(src, buf.data(), buf.size());
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) {
        alive = false;
        break;
      }
      std::size_t deliver = static_cast<std::size_t>(n);
      bool kill_after = false;
      if (options_.drop_prob > 0.0 && coin(rng) < options_.drop_prob) {
        // Mid-frame disconnect: deliver a random prefix, then sever.
        deliver = rng() % (deliver + 1);
        kill_after = true;
        chaos_drops_.fetch_add(1);
      }
      if (options_.delay_prob > 0.0 && options_.max_delay_ms > 0 &&
          coin(rng) < options_.delay_prob) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rng() % (options_.max_delay_ms + 1)));
      }
      if (deliver > 0 && !write_all(dst, buf.data(), deliver)) {
        alive = false;
        break;
      }
      if (kill_after) alive = false;
    }
  }
  sever(link.client_fd);
  sever(link.backend_fd);
  link.done->store(true);
}

}  // namespace nsync::engine
