#include "engine/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace nsync::engine {

namespace {

void sleep_ms(std::uint32_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

ResilientWireClient::ResilientWireClient(WireEndpoint endpoint,
                                         ResilientClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(std::move(options)),
      rng_(options_.jitter_seed) {}

std::uint32_t ResilientWireClient::backoff_delay_ms(std::size_t attempt) {
  const std::uint64_t shift = std::min<std::size_t>(attempt, 20);
  const std::uint64_t d =
      std::min<std::uint64_t>(options_.backoff_cap_ms,
                              std::uint64_t{options_.backoff_base_ms} << shift);
  if (d == 0) return 0;
  // Equal jitter: uniform in [d/2, d].  rng_ is seeded, so the schedule is
  // reproducible; modulo bias over this range is irrelevant for pacing.
  const std::uint64_t half = d / 2;
  return static_cast<std::uint32_t>(half + rng_() % (d - half + 1));
}

void ResilientWireClient::handle_transport_error(std::size_t& attempt,
                                                 const char* what) {
  ++telemetry_.transport_errors;
  conn_.reset();
  if (++attempt >= options_.max_attempts) {
    throw std::runtime_error(std::string("ResilientWireClient: ") + what +
                             " failed after " +
                             std::to_string(options_.max_attempts) +
                             " attempts");
  }
  sleep_ms(backoff_delay_ms(attempt - 1));
}

void ResilientWireClient::ensure_connected() {
  if (conn_ && conn_->connected()) return;
  conn_.reset();
  std::size_t attempt = 0;
  for (;;) {
    try {
      WireClient c = endpoint_.uds_path.empty()
                         ? WireClient::connect_tcp(endpoint_.tcp_port,
                                                   options_.io)
                         : WireClient::connect_uds(endpoint_.uds_path,
                                                   options_.io);
      last_hello_ = c.hello(options_.client_name);
      conn_.emplace(std::move(c));
      ++telemetry_.connects;
      if (telemetry_.connects > 1) ++telemetry_.reconnects;
      resync();
      return;
    } catch (const WireError& e) {
      if (e.code() != wire::ErrorCode::kBusy) throw;
      // Admission cap: honor the server's hint, but never retry faster
      // than our own jittered schedule.
      ++telemetry_.busy_backoffs;
      conn_.reset();
      if (++attempt >= options_.max_attempts) throw;
      sleep_ms(std::max(e.retry_after_ms(), backoff_delay_ms(attempt - 1)));
    } catch (const std::exception&) {
      ++telemetry_.transport_errors;
      conn_.reset();
      if (++attempt >= options_.max_attempts) throw;
      sleep_ms(backoff_delay_ms(attempt - 1));
    }
  }
}

wire::HelloOk ResilientWireClient::connect_now() {
  conn_.reset();
  ensure_connected();
  return last_hello_;
}

void ResilientWireClient::resync() {
  // Re-attach every live session.  The server's ADD_SESSION is idempotent
  // by name (a live session with the same name is returned, not
  // duplicated), so replaying registrations is safe whether the daemon
  // kept our state, resumed from a checkpoint, or started fresh.
  for (auto& st : sessions_) {
    if (st.evicted) continue;
    st.server_id = conn_->add_session(st.spec).session;
  }
  if (!sessions_.empty()) sync_offsets();
}

void ResilientWireClient::sync_offsets() {
  const wire::Stats stats = conn_->poll_stats(/*include_sessions=*/true);
  for (auto& st : sessions_) {
    if (st.evicted) continue;
    // sessions_detail is ordered by server id; verify by name in case the
    // daemon restarted fresh and ids shifted.
    const wire::StatsSession* found = nullptr;
    if (st.server_id < stats.sessions_detail.size() &&
        stats.sessions_detail[st.server_id].name == st.spec.name) {
      found = &stats.sessions_detail[st.server_id];
    } else {
      for (const auto& d : stats.sessions_detail) {
        if (d.name == st.spec.name && d.evicted == 0) found = &d;
      }
    }
    if (found == nullptr) continue;
    if (found->evicted != 0) {
      st.evicted = true;
      continue;
    }
    for (const auto& ch : found->channels) {
      st.acked[ch.name] = static_cast<std::size_t>(ch.frames_fed);
    }
  }
}

void ResilientWireClient::refresh_offsets() {
  std::size_t attempt = 0;
  for (;;) {
    try {
      ensure_connected();
      sync_offsets();
      return;
    } catch (const WireError&) {
      throw;
    } catch (const std::exception&) {
      handle_transport_error(attempt, "refresh_offsets");
    }
  }
}

ResilientWireClient::SessionState& ResilientWireClient::state(
    std::uint64_t handle) {
  for (auto& st : sessions_) {
    if (st.handle == handle) return st;
  }
  throw std::out_of_range("ResilientWireClient: unknown session handle " +
                          std::to_string(handle));
}

const ResilientWireClient::SessionState& ResilientWireClient::state(
    std::uint64_t handle) const {
  for (const auto& st : sessions_) {
    if (st.handle == handle) return st;
  }
  throw std::out_of_range("ResilientWireClient: unknown session handle " +
                          std::to_string(handle));
}

std::uint64_t ResilientWireClient::add_session(const SessionSpec& spec) {
  SessionState st;
  st.spec = spec;
  for (const auto& ch : spec.channels) st.acked[ch.name] = 0;

  std::size_t attempt = 0;
  for (;;) {
    try {
      ensure_connected();
      const wire::AddSessionOk ok = conn_->add_session(spec);
      st.handle = ok.session;
      st.server_id = ok.session;
      break;
    } catch (const WireError&) {
      throw;
    } catch (const std::exception&) {
      handle_transport_error(attempt, "add_session");
    }
  }
  sessions_.push_back(std::move(st));
  // Pick up pre-existing cursors when this re-attached to a resumed
  // daemon (fresh sessions just read back zeros).
  refresh_offsets();
  return sessions_.back().handle;
}

std::size_t ResilientWireClient::acked(std::uint64_t session,
                                       const std::string& channel) const {
  const SessionState& st = state(session);
  const auto it = st.acked.find(channel);
  if (it == st.acked.end()) {
    throw std::out_of_range("ResilientWireClient: unknown channel " + channel);
  }
  return it->second;
}

ResilientWireClient::FeedOutcome ResilientWireClient::feed(
    std::uint64_t session, const std::string& channel,
    const nsync::signal::SignalView& frames, std::size_t offset) {
  std::size_t attempt = 0;
  for (;;) {
    SessionState& st = state(session);
    if (st.evicted) {
      throw WireError(wire::ErrorCode::kEvicted, "session evicted");
    }
    try {
      ensure_connected();
      // ensure_connected() may have resynced st.acked from the server, so
      // re-read the cursor every attempt.
      const std::size_t sent = st.acked.at(channel);
      const std::size_t n = frames.frames();
      if (sent >= offset + n) {
        // The whole view was applied before a reply got lost: synthesize
        // success instead of double-feeding (the exactly-once
        // fast-forward).
        telemetry_.fast_forwarded_frames += n;
        FeedOutcome out;
        out.cursor = sent;
        return out;
      }
      if (sent < offset) {
        // Server rolled back past this view (restart from an older
        // checkpoint): the caller owns the data and must re-feed from
        // `cursor`.
        ++telemetry_.rewinds;
        FeedOutcome out;
        out.cursor = sent;
        out.rewound = true;
        return out;
      }
      const std::size_t skip = sent - offset;
      telemetry_.fast_forwarded_frames += skip;
      FeedOutcome out;
      out.ok = conn_->feed(st.server_id, channel, frames.slice(skip, n));
      st.acked[channel] = offset + n;
      out.cursor = offset + n;
      return out;
    } catch (const WireError& e) {
      if (e.code() == wire::ErrorCode::kEvicted) st.evicted = true;
      throw;  // typed server errors are never transport noise: propagate
    } catch (const std::exception&) {
      handle_transport_error(attempt, "feed");
    }
  }
}

wire::Stats ResilientWireClient::poll_stats(bool include_sessions) {
  std::size_t attempt = 0;
  for (;;) {
    try {
      ensure_connected();
      return conn_->poll_stats(include_sessions);
    } catch (const WireError&) {
      throw;
    } catch (const std::exception&) {
      handle_transport_error(attempt, "poll_stats");
    }
  }
}

}  // namespace nsync::engine
