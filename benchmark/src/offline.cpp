#include "offline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "host_speed.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"

#if BENCH_E2E_TRACED
#include "replay.hpp"
#endif

namespace bench {

using Clock = std::chrono::steady_clock;
using nsync::core::Detection;
using nsync::core::NsyncIds;
using nsync::signal::SignalView;

namespace {

bool same_detection(const Detection& a, const Detection& b) {
  return a.intrusion == b.intrusion && a.by_c_disp == b.by_c_disp &&
         a.by_h_dist == b.by_h_dist && a.by_v_dist == b.by_v_dist &&
         a.first_alarm_window == b.first_alarm_window;
}

struct Op {
  std::size_t cell;
  std::size_t print;
};

#if BENCH_E2E_TRACED
/// Layer replay input: per kind, one benign and one attacked print through
/// sessions carrying every raw channel, armed with the raw cells' fitted
/// thresholds.
ReplayInput make_replay_input(const OfflineData& d,
                              const std::vector<std::unique_ptr<NsyncIds>>& ids,
                              std::vector<KindData>& fitted,
                              const RunOptions& opt) {
  const double seconds_cap = opt.smoke ? 4.0 : 20.0;
  fitted = d.kinds;
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const OfflineCell& cell = d.cells[i];
    if (cell.spectrogram) continue;
    KindData& k = fitted[cell.kind];
    k.thresholds.resize(k.names.size());
    k.thresholds[cell.channel] = ids[i]->thresholds();
  }
  ReplayInput in;
  in.fleet.shards = kDaemonShards;
  in.scratch_dir = opt.work_dir + "/replay";
  in.fit_seconds = seconds_cap;
  for (const KindData& k : fitted) {
    for (const auto* print : {&k.benign.front(), &k.attacked.front()}) {
      ReplaySession s;
      s.kind = &k;
      s.spec = make_spec(k, nsync::eval::printer_name(k.kind), "", nullptr);
      s.block = block_frames(k, 1.0);
      for (const Signal& stream : *print) {
        const auto frames = std::min<std::size_t>(
            stream.frames(),
            static_cast<std::size_t>(seconds_cap * stream.sample_rate()));
        s.streams.push_back(SignalView(stream).slice(0, frames));
      }
      in.sessions.push_back(std::move(s));
    }
  }
  return in;
}
#endif

}  // namespace

OfflineData make_offline_data(const RunOptions& opt) {
  OfflineData d;
  const auto& channels = nsync::sensors::all_side_channels();
  for (const auto kind :
       {nsync::eval::PrinterKind::kUm3, nsync::eval::PrinterKind::kRm3}) {
    KindRequest req{kind, channels};
    req.layers = opt.smoke ? 1 : 3;
    req.train = opt.smoke ? 2 : 3;
    req.benign = 2;
    req.fit = false;
    d.kinds.push_back(build_kind(req, opt.seed));
  }
  // Fixed pool per cell: two benign prints and two Table I attacks (Void
  // and InfillGrid).  The attack types stay the same on every seed: the
  // others change the print's length, and with it every timing here.
  for (std::size_t k = 0; k < d.kinds.size(); ++k) {
    const KindData& kd = d.kinds[k];
    for (std::size_t c = 0; c < channels.size(); ++c) {
      for (const bool spectro : {false, true}) {
        OfflineCell cell;
        cell.kind = k;
        cell.channel = c;
        cell.spectrogram = spectro;
        cell.stft = nsync::eval::table3_stft(channels[c]);
        for (std::size_t b = 0; b < 2; ++b) {
          cell.pool.push_back(&kd.benign[b][c]);
          cell.pool_attacked.push_back(false);
        }
        for (std::size_t a = 0; a < 2; ++a) {
          cell.pool.push_back(&kd.attacked[a][c]);
          cell.pool_attacked.push_back(true);
        }
        d.cells.push_back(std::move(cell));
      }
    }
  }
  nsync::runtime::parallel_for(0, d.cells.size(), [&](std::size_t i) {
    OfflineCell& cell = d.cells[i];
    const KindData& kd = d.kinds[cell.kind];
    const auto transform = [&](const Signal& raw) {
      return cell.spectrogram ? nsync::dsp::spectrogram(raw, cell.stft) : raw;
    };
    cell.reference = transform(kd.references[cell.channel]);
    for (const auto& run : kd.train) cell.train.push_back(transform(run[cell.channel]));
    cell.config.sync = nsync::core::SyncMethod::kDwm;
    cell.config.dwm =
        nsync::eval::dwm_params_for(kd.kind, cell.reference.sample_rate());
  });
  return d;
}

RunResult run_offline(const OfflineData& d, const RunOptions& opt) {
  RunResult r;
  r.workload = "offline_analyze";
  r.seed = opt.seed;
  nsync::runtime::set_worker_count(1);

  HostSpeed host;

  // Set-up: NsyncIds construction plus fit() for every grid cell.
  std::vector<std::unique_ptr<NsyncIds>> ids(d.cells.size());
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    for (int i = 0; i < kHostSamplesPerSetup; ++i) host.sample();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < d.cells.size(); ++i) {
      ids[i] = std::make_unique<NsyncIds>(d.cells[i].reference, d.cells[i].config);
      ids[i]->fit(d.cells[i].train);
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  std::vector<Op> pass;
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    for (std::size_t j = 0; j < d.cells[i].pool.size(); ++j) pass.push_back({i, j});
  }
  const auto run_op = [&](const Op& op) {
    const OfflineCell& cell = d.cells[op.cell];
    const Signal& raw = *cell.pool[op.print];
    const SpanScope span("offline.op");
    Signal spec;
    if (cell.spectrogram) {
      const SpanScope stft("dsp.stft", span.id());
      spec = nsync::dsp::spectrogram(raw, cell.stft);
    }
    const SignalView observed = cell.spectrogram ? SignalView(spec) : SignalView(raw);
    nsync::core::Analysis a;
    {
      const SpanScope analyze("core.analyze", span.id());
      a = ids[op.cell]->analyze(observed);
    }
    const SpanScope detect("core.detect", span.id());
    return ids[op.cell]->detect(a);
  };

  // Warm-up: one full pass, whose detections every later pass must equal.
  std::vector<Detection> first(pass.size());
  for (std::size_t i = 0; i < pass.size(); ++i) {
    ++r.attempted;
    try {
      first[i] = run_op(pass[i]);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(std::string("warm-up operation: ") + e.what());
    }
  }

  // Measured phase: whole passes until the phase time is spent, so every
  // operation is timed equally often.  Host samples between operations stay
  // off every operation's clocks.
  std::vector<std::vector<double>> op_ms(pass.size());
  double channel_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t passes = 0;
  std::size_t mismatches = 0;
  const auto t_phase = Clock::now();
  const auto t_end = t_phase + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt.phase_s));
  for (; Clock::now() < t_end; ++passes) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      host.sample();
      ++r.attempted;
      const double c0 = thread_cpu_s();
      const auto t0 = Clock::now();
      try {
        const Detection det = run_op(pass[i]);
        if (!same_detection(det, first[i])) ++mismatches;
      } catch (const std::exception& e) {
        ++r.failed;
        r.fail(std::string("operation: ") + e.what());
        continue;
      }
      const auto t1 = Clock::now();
      cpu_s += thread_cpu_s() - c0;
      wall_s += std::chrono::duration<double>(t1 - t0).count();
      op_ms[i].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      channel_s += d.cells[pass[i].cell].pool[pass[i].print]->duration();
    }
  }
  if (mismatches > 0) {
    r.fail(std::to_string(mismatches) +
           " operations disagreed with the first pass's Detection");
  }
  if (wall_s <= 0.0) r.fail("no operation completed in the phase");
  // An operation's latency is its median over the passes; the percentiles
  // run over the grid's operations.
  std::vector<double> latency_ms;
  for (const auto& samples : op_ms) {
    if (!samples.empty()) latency_ms.push_back(median(samples));
  }

  // Timed metrics at the reference host speed; raw values in the notes.
  const double slowdown = host.slowdown();
  const double time = 1.0 / slowdown;
  r.put("setup_s", median(setup_s), setup_s.size(), time);
  r.put("verdict_p50_ms", percentile(latency_ms, 0.50), latency_ms.size(), time);
  r.put("verdict_p90_ms", percentile(latency_ms, 0.90), latency_ms.size(), time);
  r.put("verdict_p99_ms", percentile(latency_ms, 0.99), latency_ms.size(), time);
  r.put("cpu_ms_per_channel_s", 1000.0 * cpu_s / channel_s, pass.size() * passes,
      time);
  r.put("throughput_channel_s_per_s", channel_s / wall_s, pass.size() * passes,
      slowdown);
  r.put("failed_frac",
      static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
      r.attempted);
  r.notes["host_slowdown"] = slowdown;
  r.notes["host_samples"] = host.samples();
  r.notes["passes"] = passes;
  r.notes["operations_per_pass"] = pass.size();
  r.notes["detection_mismatches"] = mismatches;
  std::size_t alarms_benign = 0;
  std::size_t alarms_attacked = 0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (!first[i].intrusion) continue;
    const bool attacked = d.cells[pass[i].cell].pool_attacked[pass[i].print];
    (attacked ? alarms_attacked : alarms_benign)++;
  }
  r.notes["alarms_on_benign_ops"] = alarms_benign;
  r.notes["alarms_on_attacked_ops"] = alarms_attacked;
  json::Value& c = r.notes["constants"];
  c["warmup"] = "one pass";
  c["phase_s"] = opt.phase_s;
  c["cells"] = d.cells.size();
  c["prints_per_cell"] = d.cells.front().pool.size();
  c["print_s"] = d.kinds.front().min_duration_s();

#if BENCH_E2E_TRACED
  std::vector<SpanRecord> all = spans::take();
  std::vector<KindData> fitted;
  const auto replayed = replay_layers(make_replay_input(d, ids, fitted, opt), r);
  all.insert(all.end(), replayed.begin(), replayed.end());
  if (!opt.spans_path.empty()) spans::write(opt.spans_path, all, t_phase);
#endif
  return r;
}

}  // namespace bench
