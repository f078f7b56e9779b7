#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "core/comparator.hpp"
#include "core/discriminator.hpp"
#include "core/dwm.hpp"
#include "core/tde.hpp"
#include "dsp/stft.hpp"
#include "dsp/xcorr.hpp"
#include "engine/baseline_registry.hpp"
#include "engine/fleet_server.hpp"
#include "engine/session_codec.hpp"
#include "engine/wire_protocol.hpp"
#include "runtime/thread_pool.hpp"
#include "signal/checkpoint.hpp"
#include "trace.hpp"

namespace bench {

namespace fs = std::filesystem;
namespace wire = nsync::engine::wire;
using nsync::engine::FleetServer;
using nsync::engine::MonitorEngine;
using nsync::engine::ShardedFleet;
using nsync::signal::SignalView;

namespace {

/// Total duration (ms) and count of the replay spans of each name.
struct Totals {
  std::map<std::string, std::pair<double, std::size_t>> by_name;

  explicit Totals(const std::vector<SpanRecord>& all) {
    for (const SpanRecord& s : all) {
      auto& [ms, n] = by_name[s.name];
      ms += std::chrono::duration<double, std::milli>(s.end - s.start).count();
      ++n;
    }
  }
  [[nodiscard]] double ms(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.first;
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.second;
  }
  [[nodiscard]] double mean_ms(const std::string& name) const {
    const std::size_t n = count(name);
    return n == 0 ? 0.0 : ms(name) / static_cast<double>(n);
  }
};

std::size_t rounds_of(const ReplayInput& in) {
  std::size_t rounds = 0;
  for (const ReplaySession& s : in.sessions) {
    for (std::size_t c = 0; c < s.streams.size(); ++c) {
      rounds = std::max(rounds,
                        (s.streams[c].frames() + s.block[c] - 1) / s.block[c]);
    }
  }
  return rounds;
}

/// Calls fn(session, channel, frames) for every FEED of schedule round k.
template <typename Fn>
void for_round(const ReplayInput& in, std::size_t k, Fn&& fn) {
  for (std::size_t s = 0; s < in.sessions.size(); ++s) {
    const ReplaySession& rs = in.sessions[s];
    for (std::size_t c = 0; c < rs.streams.size(); ++c) {
      const std::size_t lo = k * rs.block[c];
      const std::size_t hi = std::min(lo + rs.block[c], rs.streams[c].frames());
      if (lo < hi) fn(s, c, rs.streams[c].slice(lo, hi));
    }
  }
}

nsync::engine::ShardedFleetOptions fresh_fleet_options(const ReplayInput& in,
                                                       const std::string& tag) {
  nsync::engine::ShardedFleetOptions o = in.fleet;
  if (!o.checkpoint_dir.empty()) {
    o.checkpoint_dir = in.scratch_dir + "/" + tag + "-checkpoint";
    fs::create_directories(o.checkpoint_dir);
  }
  if (o.baseline.adaptive) {
    o.baseline.dir = in.scratch_dir + "/" + tag + "-baseline";
    fs::create_directories(o.baseline.dir);
  }
  return o;
}

/// wire::encode -> FrameDecoder::next -> FleetServer::handle on an
/// in-process ShardedFleet with the daemon's options, flush() after each
/// schedule round.  Returns the fleet's stats after the last round.
nsync::engine::FleetStats replay_message_path(const ReplayInput& in,
                                              std::size_t& feed_frames,
                                              std::size_t& feed_bytes) {
  ShardedFleet fleet(fresh_fleet_options(in, "message"));
  wire::FrameDecoder decoder;
  const auto round_trip = [&](const wire::Message& msg, const char* encode_name,
                              const char* decode_name, const char* handle_name) {
    std::vector<std::uint8_t> bytes;
    {
      const SpanScope span(encode_name);
      bytes = wire::encode(msg);
    }
    wire::Message decoded;
    {
      const SpanScope span(decode_name);
      decoder.feed(bytes);
      if (decoder.next(decoded) != wire::DecodeStatus::kFrame) {
        throw std::runtime_error("replay: frame did not decode");
      }
    }
    const SpanScope span(handle_name);
    return std::make_pair(FleetServer::handle(fleet, decoded), bytes.size());
  };
  std::vector<std::uint64_t> ids;
  for (const ReplaySession& s : in.sessions) {
    const auto [reply, bytes] =
        round_trip(wire::AddSession{s.spec}, "wire.encode.add", "wire.decode.add",
                   "server.handle.add");
    const auto* ok = std::get_if<wire::AddSessionOk>(&reply);
    if (ok == nullptr) throw std::runtime_error("replay: ADD_SESSION failed");
    ids.push_back(ok->session);
  }
  const std::size_t rounds = rounds_of(in);
  for (std::size_t k = 0; k < rounds; ++k) {
    for_round(in, k, [&](std::size_t s, std::size_t c, const SignalView& frames) {
      wire::Feed feed;
      feed.session = ids[s];
      feed.channel = in.sessions[s].spec.channels[c].name;
      feed.frames = frames.to_signal();
      const auto [reply, bytes] =
          round_trip(feed, "wire.encode.feed", "wire.decode.feed",
                     "server.handle.feed");
      if (!std::holds_alternative<wire::FeedOk>(reply)) {
        throw std::runtime_error("replay: FEED failed");
      }
      feed_frames += frames.frames();
      feed_bytes += bytes;
    });
    {
      const SpanScope span("fleet.flush");
      fleet.flush();
    }
    const auto reply = round_trip(wire::PollStats{1}, "wire.encode.poll",
                                  "wire.decode.poll", "server.handle.poll_stats");
    if (!std::holds_alternative<wire::Stats>(reply.first)) {
      throw std::runtime_error("replay: POLL_STATS failed");
    }
  }
  return fleet.stats();
}

/// The same FEEDs straight into ShardedFleet::feed: the fleet layer's own
/// share of the message path.
void replay_enqueue(const ReplayInput& in) {
  ShardedFleet fleet(fresh_fleet_options(in, "enqueue"));
  std::vector<std::size_t> ids;
  for (const ReplaySession& s : in.sessions) ids.push_back(fleet.add_session(s.spec));
  const std::size_t rounds = rounds_of(in);
  for (std::size_t k = 0; k < rounds; ++k) {
    for_round(in, k, [&](std::size_t s, std::size_t c, const SignalView& frames) {
      const std::string& name = in.sessions[s].spec.channels[c].name;
      const SpanScope span("fleet.feed");
      if (fleet.feed(ids[s], name, frames).status != nsync::engine::FeedStatus::kOk) {
        throw std::runtime_error("replay: fleet feed failed");
      }
    });
    fleet.flush();
  }
}

}  // namespace

std::vector<SpanRecord> replay_layers(const ReplayInput& in, RunResult& r) {
  nsync::runtime::set_worker_count(1);
  fs::remove_all(in.scratch_dir);
  fs::create_directories(in.scratch_dir);
  (void)spans::take();

  // --- Message path: wire, server, fleet. ----------------------------------
  std::size_t feed_frames = 0;
  std::size_t feed_bytes = 0;
  const nsync::engine::FleetStats fstats =
      replay_message_path(in, feed_frames, feed_bytes);
  replay_enqueue(in);

  // --- Engine: a bare MonitorEngine per shard, feed + poll_inline. ---------
  const std::size_t shards = std::max<std::size_t>(1, in.fleet.shards);
  std::vector<MonitorEngine> engines(shards);
  std::vector<std::pair<std::size_t, std::size_t>> where;  // (engine, local id)
  for (std::size_t s = 0; s < in.sessions.size(); ++s) {
    where.emplace_back(s % shards, engines[s % shards].add_session(in.sessions[s].spec));
  }
  std::size_t engine_windows = 0;
  std::uint64_t engine_allocs = 0;
  const std::size_t rounds = rounds_of(in);
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::uint64_t a0 = allocs::count();
    allocs::enable(true);
    {
      const SpanScope span("engine.feed_poll");
      for_round(in, k, [&](std::size_t s, std::size_t c, const SignalView& frames) {
        const auto [e, local] = where[s];
        engine_windows +=
            engines[e].feed(local, in.sessions[s].spec.channels[c].name, frames);
      });
      for (MonitorEngine& e : engines) engine_windows += e.poll_inline();
    }
    allocs::enable(false);
    engine_allocs += allocs::count() - a0;
  }
  std::size_t total_state = 0;
  const std::string ckpt = in.scratch_dir + "/engine.nckp";
  for (int rep = 0; rep < 3; ++rep) {
    total_state = 0;
    for (const MonitorEngine& e : engines) {
      {
        const SpanScope span("checkpoint.serialize");
        total_state += e.serialize().size();
      }
      const SpanScope span("checkpoint.checkpoint");
      e.checkpoint(ckpt);
    }
  }

  // --- Core per channel, kernels, fusion, offline split. --------------------
  std::size_t core_windows = 0;
  std::size_t prints = 0;
  std::set<std::pair<const KindData*, std::size_t>> fitted;
  for (const ReplaySession& s : in.sessions) {
    std::vector<nsync::core::ChannelScore> scores;
    for (std::size_t c = 0; c < s.streams.size(); ++c) {
      const auto& ch = s.spec.channels[c];
      const SignalView obs = s.streams[c];
      nsync::core::RealtimeMonitor monitor(ch.reference, ch.config, ch.thresholds);
      nsync::core::DwmSynchronizer sync(ch.reference, ch.config.dwm);
      for (std::size_t lo = 0; lo < obs.frames(); lo += s.block[c]) {
        const SignalView block = obs.slice(lo, std::min(lo + s.block[c], obs.frames()));
        {
          const SpanScope span("core.monitor.push");
          core_windows += monitor.push(block);
        }
        const SpanScope span("core.dwm.push");
        sync.push(block);
      }
      // The detection core's own share, called directly on the
      // synchronizer's windows (the monitor composes the two).
      {
        const auto& dwm = sync.result();
        nsync::core::DetectionCore detect(ch.config.dwm, ch.config.metric,
                                          ch.config.filter_window);
        detect.set_thresholds(ch.thresholds);
        detect.reserve(dwm.h_disp.size());
        for (std::size_t i = 0; i < dwm.h_disp.size(); ++i) {
          const std::size_t a0 = i * ch.config.dwm.n_hop;
          const SignalView a_win = obs.slice(a0, a0 + ch.config.dwm.n_win);
          const SpanScope span("core.detect.step");
          detect.step(dwm.h_disp[i], dwm.valid[i] != 0, a_win, ch.reference);
        }
      }
      scores.push_back({ch.name,
                        nsync::core::channel_score(monitor.features(),
                                                   monitor.thresholds()),
                        monitor.intrusion(), monitor.detection().first_alarm_window,
                        monitor.health()});

      // Kernels at this channel's n_win / n_ext.
      const auto& p = ch.config.dwm;
      if (obs.frames() >= p.n_win && ch.reference.frames() >= p.n_win + 2 * p.n_ext) {
        const SignalView x = SignalView(ch.reference).slice(0, p.n_win + 2 * p.n_ext);
        const SignalView y = obs.slice(0, p.n_win);
        nsync::core::TdeWorkspace ws;
        const std::vector<double> x0 = x.channel(0);
        const std::vector<double> y0 = y.channel(0);
        std::vector<double> out(x0.size() - y0.size() + 1);
        nsync::dsp::SlidingPearsonWorkspace pws;
        // Untimed first calls size the workspaces and build the FFT plans.
        (void)nsync::core::estimate_delay_biased(
            x, y, static_cast<double>(p.n_ext), p.n_sigma, p.tde, ws);
        nsync::dsp::sliding_pearson_fft_into(x0, y0, out, pws);
        for (int rep = 0; rep < 8; ++rep) {
          {
            const SpanScope span("core.tdeb");
            (void)nsync::core::estimate_delay_biased(
                x, y, static_cast<double>(p.n_ext), p.n_sigma, p.tde, ws);
          }
          const SpanScope span("dsp.pearson");
          nsync::dsp::sliding_pearson_fft_into(x0, y0, out, pws);
        }
      }

      // The offline split over the same observed stream.
      nsync::core::DwmResult aligned;
      {
        const SpanScope span("core.align");
        aligned = nsync::core::DwmSynchronizer::align(obs, ch.reference, p);
      }
      std::vector<double> v_dist;
      {
        const SpanScope span("core.compare");
        v_dist = nsync::core::vertical_distances_dwm(obs, ch.reference,
                                                     aligned.h_disp, p,
                                                     ch.config.metric);
      }
      {
        const SpanScope span("core.discriminate");
        const auto features = nsync::core::compute_features(
            aligned.h_disp, v_dist, ch.config.filter_window);
        (void)nsync::core::discriminate(features, ch.thresholds);
      }
      {
        const SpanScope span("dsp.stft");
        (void)nsync::dsp::spectrogram(obs, nsync::eval::table3_stft(s.kind->channels[c]));
      }
      ++prints;

      if (fitted.insert({s.kind, c}).second && s.kind->train.size() >= 2) {
        std::vector<Signal> train;
        for (std::size_t t = 0; t < 2; ++t) {
          const Signal& full = s.kind->train[t][c];
          const auto frames = std::min<std::size_t>(
              full.frames(),
              static_cast<std::size_t>(in.fit_seconds * full.sample_rate()));
          train.push_back(SignalView(full).slice(0, frames).to_signal());
        }
        nsync::core::NsyncIds ids(ch.reference, ch.config);
        const SpanScope span("core.fit");
        ids.fit(train);
      }
    }
    const nsync::core::VotingPolicy voting(s.spec.rule);
    const nsync::core::FusionPolicy& policy =
        s.spec.policy ? *s.spec.policy : static_cast<const nsync::core::FusionPolicy&>(voting);
    for (int rep = 0; rep < 64; ++rep) {
      const SpanScope span("core.fusion");
      (void)policy.evaluate(scores);
    }
  }

  // --- Admission and durability: codec, baseline registry. ------------------
  double spec_mib = 0.0;
  for (const ReplaySession& s : in.sessions) {
    std::vector<std::uint8_t> bytes;
    for (int rep = 0; rep < 3; ++rep) {
      {
        const SpanScope span("codec.encode");
        nsync::signal::ByteWriter w;
        nsync::engine::save_session_spec(w, s.spec);
        bytes = w.take();
      }
      const SpanScope span("codec.decode");
      nsync::signal::ByteReader rd(bytes);
      (void)nsync::engine::load_session_spec(rd);
    }
    spec_mib += static_cast<double>(bytes.size()) / (1 << 20);
  }
  {
    nsync::engine::BaselineRegistry registry(in.fleet.baseline.policy);
    for (std::size_t s = 0; s < in.sessions.size(); ++s) {
      const auto& spec = in.sessions[s].spec;
      const std::string model = spec.model.empty() ? "replay" : spec.model;
      for (const auto& ch : spec.channels) {
        for (int rep = 0; rep < 4; ++rep) {
          {
            const SpanScope span("baseline.resolve");
            (void)registry.resolve(model, ch.name, ch.thresholds);
          }
          const SpanScope span("baseline.fold");
          (void)registry.fold(model, ch.name,
                              {ch.thresholds.c_c * 0.5, ch.thresholds.h_c * 0.5,
                               ch.thresholds.v_c * 0.5},
                              true);
        }
      }
    }
  }

  // --- Per-layer metrics from the spans. ------------------------------------
  std::vector<SpanRecord> all = spans::take();
  const Totals t(all);
  const auto put = [&](const std::string& name, double v, std::size_t n) {
    r.layers[name] = {v, find_metric(name)->unit, n};
  };
  const std::size_t feeds = t.count("server.handle.feed");
  const double handle_us = 1000.0 * t.mean_ms("server.handle.feed");
  const double enqueue_us = 1000.0 * t.mean_ms("fleet.feed");
  put("wire.encode_us_per_feed", 1000.0 * t.mean_ms("wire.encode.feed"), feeds);
  put("wire.decode_us_per_feed", 1000.0 * t.mean_ms("wire.decode.feed"), feeds);
  put("wire.bytes_per_frame",
      feed_frames == 0 ? 0.0 : static_cast<double>(feed_bytes) / static_cast<double>(feed_frames),
      feeds);
  put("wire.decode_ms_per_admit", t.mean_ms("wire.decode.add"),
      t.count("wire.decode.add"));
  // Inclusive of the fleet enqueue handle() wraps; the server's self time
  // is this minus fleet.enqueue_us_per_feed (the same FEEDs).
  put("server.handle_us_per_feed", handle_us, feeds);
  put("server.handle_ms_per_poll_stats", t.mean_ms("server.handle.poll_stats"),
      t.count("server.handle.poll_stats"));
  put("server.handle_ms_per_admit", t.mean_ms("server.handle.add"),
      t.count("server.handle.add"));
  put("fleet.enqueue_us_per_feed", enqueue_us, t.count("fleet.feed"));
  put("fleet.drain_ms_per_round", t.mean_ms("fleet.flush"), t.count("fleet.flush"));
  std::uint64_t polls = 0;
  std::uint64_t batches = 0;
  std::size_t peak = 0;
  for (const auto& s : fstats.per_shard) {
    polls += s.polls;
    batches += s.batches;
    peak = std::max(peak, s.queue.peak_queued_frames);
  }
  put("fleet.polls_per_batch",
      batches == 0 ? 0.0 : static_cast<double>(polls) / static_cast<double>(batches),
      batches);
  put("fleet.queue_peak_frames", static_cast<double>(peak), fstats.per_shard.size());
  const double windows = static_cast<double>(std::max<std::size_t>(1, engine_windows));
  put("engine.poll_us_per_window", 1000.0 * t.ms("engine.feed_poll") / windows,
      engine_windows);
  put("engine.allocs_per_window", static_cast<double>(engine_allocs) / windows,
      engine_windows);
  put("engine.state_mb_per_session",
      static_cast<double>(total_state) / (1 << 20) /
          static_cast<double>(in.sessions.size()),
      in.sessions.size());
  const double cw = static_cast<double>(std::max<std::size_t>(1, core_windows));
  const double monitor_us = 1000.0 * t.ms("core.monitor.push") / cw;
  const double dwm_us = 1000.0 * t.ms("core.dwm.push") / cw;
  put("core.monitor_us_per_window", monitor_us, core_windows);
  put("core.dwm_us_per_window", dwm_us, core_windows);
  put("core.detect_self_us_per_window", 1000.0 * t.mean_ms("core.detect.step"),
      t.count("core.detect.step"));
  put("core.tdeb_us_per_window", 1000.0 * t.mean_ms("core.tdeb"), t.count("core.tdeb"));
  put("core.fusion_us_per_eval", 1000.0 * t.mean_ms("core.fusion"),
      t.count("core.fusion"));
  put("core.align_ms_per_print", t.mean_ms("core.align"), prints);
  put("core.compare_ms_per_print", t.mean_ms("core.compare"), prints);
  put("core.discriminate_ms_per_print", t.mean_ms("core.discriminate"), prints);
  put("core.fit_ms_per_cell", t.mean_ms("core.fit"), t.count("core.fit"));
  put("dsp.pearson_us_per_window", 1000.0 * t.mean_ms("dsp.pearson"),
      t.count("dsp.pearson"));
  put("dsp.stft_ms_per_print", t.mean_ms("dsp.stft"), prints);
  put("codec.spec_mb", spec_mib / static_cast<double>(in.sessions.size()),
      in.sessions.size());
  put("codec.encode_ms_per_spec", t.mean_ms("codec.encode"), t.count("codec.encode"));
  put("codec.decode_ms_per_spec", t.mean_ms("codec.decode"), t.count("codec.decode"));
  const double serialize_ms = t.mean_ms("checkpoint.serialize");
  put("checkpoint.mb_per_shard",
      static_cast<double>(total_state) / (1 << 20) / static_cast<double>(shards),
      shards);
  put("checkpoint.serialize_ms_per_shard", serialize_ms,
      t.count("checkpoint.serialize"));
  put("checkpoint.write_ms_per_shard",
      std::max(0.0, t.mean_ms("checkpoint.checkpoint") - serialize_ms),
      t.count("checkpoint.checkpoint"));
  put("baseline.resolve_us", 1000.0 * t.mean_ms("baseline.resolve"),
      t.count("baseline.resolve"));
  put("baseline.fold_us", 1000.0 * t.mean_ms("baseline.fold"),
      t.count("baseline.fold"));
  fs::remove_all(in.scratch_dir);
  return all;
}

}  // namespace bench
