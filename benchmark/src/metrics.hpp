// Metric definitions and the statistics bench_e2e reports them with.
#ifndef BENCH_E2E_METRICS_HPP
#define BENCH_E2E_METRICS_HPP

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace bench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< raw samples behind the value (1 for a ratio)
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  /// Workloads that report the metric; empty means every workload.
  std::vector<std::string> workloads;
  /// Regression bound used by --compare for metrics BENCHMARK.json does
  /// not gate (report-only ones); 0 for gated metrics, whose bound is read
  /// from BENCHMARK.json.
  double report_bound = 0.0;

  [[nodiscard]] bool applies_to(const std::string& workload) const;
};

/// End-to-end metrics.  The first five are gated by BENCHMARK.json and
/// reported on every workload; the rest are report-only.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics of the traced run.
[[nodiscard]] const std::vector<MetricDef>& layer_metrics();
[[nodiscard]] const MetricDef* find_metric(const std::string& name);

/// Exact nearest-rank percentile of raw samples, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);
/// Same definitions as Python's statistics.median and
/// statistics.quantiles(values, n=4) (exclusive method).
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> values);

}  // namespace bench

#endif  // BENCH_E2E_METRICS_HPP
