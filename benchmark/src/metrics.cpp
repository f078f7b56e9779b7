#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bench {

namespace {

const std::vector<std::string> kFleet = {"farm_realtime", "farm_saturate",
                                         "print_churn"};

}  // namespace

bool MetricDef::applies_to(const std::string& workload) const {
  return workloads.empty() ||
         std::find(workloads.begin(), workloads.end(), workload) !=
             workloads.end();
}

const std::vector<MetricDef>& end_to_end_metrics() {
  // Report-only bounds come from the committed seed run sets
  // (results/seed-a.json, results/seed-b.json), by the same rule as the
  // gated bounds in BENCHMARK.json.
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", false, {}},
      {"verdict_p50_ms", "ms", false, {}},
      {"verdict_p90_ms", "ms", false, {}},
      {"cpu_ms_per_channel_s", "ms/channel-s", false, {}},
      {"throughput_channel_s_per_s", "channel-s/s", true, {}},
      {"verdict_p99_ms", "ms", false, {}, 0.5},
      {"stats_p99_ms", "ms", false, {"farm_realtime", "print_churn"}, 0.25},
      {"prints_per_s", "1/s", true, {"print_churn"}, 0.25},
      {"admit_p50_ms", "ms", false, {"print_churn"}, 0.25},
      {"admit_p90_ms", "ms", false, {"print_churn"}, 0.25},
      {"rss_mb_per_session", "MiB", false, {"farm_realtime", "farm_saturate"},
       0.10},
      {"failed_frac", "ratio", false, {}, 0.0},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"client.feed_rtt_p50_us", "us", false, kFleet},
      {"client.feed_rtt_p99_us", "us", false, kFleet},
      {"client.poll_rtt_p99_ms", "ms", false, kFleet},
      {"client.gen_late_p99_ms", "ms", false, {"farm_realtime"}},
      {"wire.encode_us_per_feed", "us", false, {}},
      {"wire.decode_us_per_feed", "us", false, {}},
      {"wire.bytes_per_frame", "bytes", false, {}},
      {"wire.decode_ms_per_admit", "ms", false, {}},
      {"server.handle_us_per_feed", "us", false, {}},
      {"server.handle_ms_per_poll_stats", "ms", false, {}},
      {"server.handle_ms_per_admit", "ms", false, {}},
      {"daemon.read_syscalls_per_feed", "count", false, kFleet},
      {"daemon.ctx_switches_per_feed", "count", false, kFleet},
      {"daemon.conn_cpu_share", "ratio", false, kFleet},
      {"fleet.enqueue_us_per_feed", "us", false, {}},
      {"fleet.drain_ms_per_round", "ms", false, {}},
      {"fleet.polls_per_batch", "ratio", false, {}},
      {"fleet.queue_peak_frames", "frames", false, {}},
      {"daemon.worker_cpu_share", "ratio", false, kFleet},
      {"engine.poll_us_per_window", "us", false, {}},
      {"engine.allocs_per_window", "count", false, {}},
      {"engine.state_mb_per_session", "MiB", false, {}},
      {"core.monitor_us_per_window", "us", false, {}},
      {"core.dwm_us_per_window", "us", false, {}},
      {"core.detect_self_us_per_window", "us", false, {}},
      {"core.tdeb_us_per_window", "us", false, {}},
      {"core.fusion_us_per_eval", "us", false, {}},
      {"core.align_ms_per_print", "ms", false, {}},
      {"core.compare_ms_per_print", "ms", false, {}},
      {"core.discriminate_ms_per_print", "ms", false, {}},
      {"core.fit_ms_per_cell", "ms", false, {}},
      {"dsp.pearson_us_per_window", "us", false, {}},
      {"dsp.stft_ms_per_print", "ms", false, {}},
      {"codec.spec_mb", "MiB", false, {}},
      {"codec.encode_ms_per_spec", "ms", false, {}},
      {"codec.decode_ms_per_spec", "ms", false, {}},
      {"checkpoint.mb_per_shard", "MiB", false, {}},
      {"checkpoint.serialize_ms_per_shard", "ms", false, {}},
      {"checkpoint.write_ms_per_shard", "ms", false, {}},
      {"checkpoint.writes_per_print", "count", false, {"print_churn"}},
      {"daemon.write_mb_per_print", "MiB", false, {"print_churn"}},
      {"baseline.resolve_us", "us", false, {}},
      {"baseline.fold_us", "us", false, {}},
  };
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &layer_metrics()}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n == 0) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  if (n == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  std::array<double, 3> out{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

}  // namespace bench
