#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

#include "dsp/simd/simd.hpp"

#ifndef BENCH_E2E_SOURCE_DIR
#error "BENCH_E2E_SOURCE_DIR must name the benchmark source directory"
#endif
#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace bench {

namespace {

/// Standard output of a shell command, or empty when it fails.
std::string command_output(const std::string& cmd) {
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  const int status = ::pclose(p);
  if (status != 0) return {};
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

json::Value metric_json(const Metric& m) {
  json::Value v = json::Value::object();
  v["value"] = m.value;
  v["unit"] = m.unit;
  v["samples"] = m.samples;
  return v;
}

json::Value run_json(const RunResult& r) {
  json::Value v = json::Value::object();
  v["seed"] = r.seed;
  v["correct"] = r.correct;
  v["attempted"] = r.attempted;
  v["failed"] = r.failed;
  json::Value& m = v["metrics"] = json::Value::object();
  for (const auto& [name, metric] : r.metrics) m[name] = metric_json(metric);
  if (!r.layers.empty()) {
    json::Value& l = v["layers"] = json::Value::object();
    for (const auto& [name, metric] : r.layers) l[name] = metric_json(metric);
  }
  json::Value& f = v["failures"] = json::Value::array();
  for (const auto& msg : r.failures) f.push(msg);
  v["notes"] = r.notes;
  return v;
}

/// Median, quartiles and IQR/median of each metric over `runs`.
json::Value summary_of(const json::Value& runs, const std::string& key) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  std::vector<std::string> order;
  for (const json::Value& run : runs.items()) {
    const json::Value* metrics = run.find(key);
    if (metrics == nullptr) continue;
    for (const auto& [name, m] : metrics->members()) {
      if (!m.at("value").is_number()) continue;
      if (values.find(name) == values.end()) order.push_back(name);
      values[name].push_back(m.at("value").number());
      units[name] = m.at("unit").string();
    }
  }
  json::Value out = json::Value::object();
  for (const std::string& name : order) {
    const auto& v = values[name];
    const double med = median(v);
    const auto q = quartiles(v);
    json::Value s = json::Value::object();
    s["unit"] = units[name];
    s["median"] = med;
    s["q1"] = q[0];
    s["q3"] = q[2];
    s["iqr_over_median"] = med != 0.0 ? (q[2] - q[0]) / std::abs(med) : 0.0;
    s["runs"] = v.size();
    out[name] = s;
  }
  return out;
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream s;
  s << std::setprecision(precision) << v;
  return s.str();
}

/// Names of BENCHMARK.json's end_to_end or per_layer metrics.
std::vector<std::string> benchmark_metric_names(const json::Value& benchmark,
                                                const std::string& section) {
  std::vector<std::string> out;
  for (const json::Value& m : benchmark.at(section).items()) {
    out.push_back(m.at("name").string());
  }
  return out;
}

}  // namespace

json::Value provenance(const RunOptions& opt) {
  json::Value p = json::Value::object();
  const std::string root = std::string(BENCH_E2E_SOURCE_DIR) + "/..";
  // Only the checkout's own repository: git would otherwise report any
  // repository that happens to enclose an exported tree.
  std::string sha =
      std::filesystem::exists(root + "/.git")
          ? command_output("git -C '" + root + "' rev-parse HEAD 2>/dev/null")
          : std::string();
  sha.erase(std::remove(sha.begin(), sha.end(), '\n'), sha.end());
  p["git_sha"] = sha.empty() ? "unknown" : sha;
  if (sha.empty()) {
    p["git_dirty"] = json::Value();
  } else {
    p["git_dirty"] = !command_output("git -C '" + root +
                                     "' status --porcelain --untracked-files=no "
                                     "2>/dev/null")
                          .empty();
  }
  p["build_type"] = BENCH_E2E_BUILD_TYPE;
  p["compiler"] = compiler();
  p["nproc"] = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  p["hardware_concurrency"] = std::thread::hardware_concurrency();
  p["simd_isa"] = nsync::dsp::simd::isa_name(nsync::dsp::simd::active_isa());
  p["seed"] = opt.seed;
  p["held_out_seed"] = kHeldOutSeed;
  p["phase_s"] = opt.phase_s;
  p["smoke"] = opt.smoke;
  p["setup_repeats"] = kSetupRepeats;
  p["daemon_shards"] = kDaemonShards;
  p["probe_period_ms"] = kProbePeriodMs;
  return p;
}

void add_run(json::Value& results, const RunResult& run,
             const std::string& section) {
  json::Value& w = results["workloads"][run.workload];
  if (w.find("why") == nullptr) w["why"] = workload_why(run.workload);
  w[section].push(run_json(run));
  summarize(results);
}

void summarize(json::Value& results) {
  json::Value* workloads = results.find("workloads");
  if (workloads == nullptr) return;
  std::size_t max_runs = 0;
  for (const auto& [name, unused] : workloads->members()) {
    // Summaries are built from copies: inserting members into `w` may move
    // the run arrays.
    json::Value& w = (*workloads)[name];
    json::Value summary;
    if (const json::Value* runs = w.find("runs")) {
      max_runs = std::max(max_runs, runs->items().size());
      summary = summary_of(*runs, "metrics");
      w["summary"] = summary;
    }
    const json::Value* found = w.find("traced_runs");
    if (found == nullptr) continue;
    const json::Value traced = *found;
    const json::Value traced_summary = summary_of(traced, "metrics");
    w["traced_summary"] = traced_summary;
    w["layer_summary"] = summary_of(traced, "layers");
    if (summary.is_null()) continue;
    json::Value overhead = json::Value::object();
    for (const auto& [metric, s] : traced_summary.members()) {
      const json::Value* u = summary.find(metric);
      if (u == nullptr) continue;
      const double um = u->at("median").number();
      json::Value row = json::Value::object();
      row["untraced_median"] = um;
      row["traced_median"] = s.at("median").number();
      row["relative"] = um != 0.0 ? s.at("median").number() / um - 1.0 : 0.0;
      overhead[metric] = row;
    }
    w["tracing_overhead"] = overhead;
  }
  results["provenance"]["runs"] = max_runs;
}

void print_summary(const json::Value& results, std::ostream& out) {
  const json::Value* workloads = results.find("workloads");
  if (workloads == nullptr) return;
  for (const auto& [name, w] : workloads->members()) {
    const json::Value* s = w.find("summary");
    if (s == nullptr) s = w.find("traced_summary");
    if (s == nullptr) continue;
    out << "\n" << name << " (" << w.at("why").string() << ")\n";
    out << "  " << std::left << std::setw(30) << "metric" << std::right
        << std::setw(12) << "median" << std::setw(10) << "IQR/med"
        << std::setw(6) << "runs" << "  unit\n";
    for (const auto& [metric, row] : s->members()) {
      out << "  " << std::left << std::setw(30) << metric << std::right
          << std::setw(12) << fmt(row.at("median").number())
          << std::setw(9) << fmt(100.0 * row.at("iqr_over_median").number(), 2)
          << "%" << std::setw(6) << row.at("runs").number() << "  "
          << row.at("unit").string() << "\n";
    }
    if (const json::Value* o = w.find("tracing_overhead")) {
      out << "  tracing overhead (traced vs untraced median):";
      for (const auto& [metric, row] : o->members()) {
        out << " " << metric << " " << fmt(100.0 * row.at("relative").number(), 3)
            << "%";
      }
      out << "\n";
    }
  }
}

void print_run(const RunResult& run, std::ostream& out) {
  out << run.workload << " seed " << run.seed << ": "
      << (run.correct ? "checks pass" : "CHECKS FAILED") << ", " << run.failed
      << "/" << run.attempted << " operations failed\n";
  for (const auto& [name, m] : run.metrics) {
    out << "  " << std::left << std::setw(30) << name << std::right
        << std::setw(12) << fmt(m.value) << " " << m.unit << "  (n=" << m.samples
        << ")\n";
  }
  for (const auto& [name, m] : run.layers) {
    out << "  " << std::left << std::setw(34) << name << std::right
        << std::setw(12) << fmt(m.value) << " " << m.unit << "\n";
  }
  for (const auto& f : run.failures) out << "  check failed: " << f << "\n";
}

int compare(const json::Value& a, const json::Value& b,
            const json::Value& benchmark, std::ostream& out) {
  std::map<std::string, double> gated;
  for (const json::Value& m : benchmark.at("end_to_end").items()) {
    gated[m.at("name").string()] = m.at("bound").number();
  }
  const auto values = [](const json::Value& w, const std::string& metric) {
    std::vector<double> v;
    for (const json::Value& run : w.at("runs").items()) {
      if (const json::Value* m = run.at("metrics").find(metric)) {
        v.push_back(m->at("value").number());
      }
    }
    return v;
  };
  int regressed = 0;
  int unresolved = 0;
  out << std::left << std::setw(17) << "workload" << std::setw(28) << "metric"
      << std::right << std::setw(11) << "median A" << std::setw(11) << "median B"
      << std::setw(9) << "change" << std::setw(8) << "bound" << "  verdict\n";
  for (const auto& [wname, wa] : a.at("workloads").members()) {
    const json::Value* wb = b.at("workloads").find(wname);
    if (wb == nullptr || wa.find("summary") == nullptr ||
        wb->find("summary") == nullptr) {
      continue;
    }
    for (const auto& [metric, sa] : wa.at("summary").members()) {
      const json::Value* sb = wb->at("summary").find(metric);
      const MetricDef* def = find_metric(metric);
      if (sb == nullptr || def == nullptr) continue;
      const double ma = sa.at("median").number();
      const double mb = sb->at("median").number();
      const auto it = gated.find(metric);
      const double bound = it != gated.end() ? it->second : def->report_bound;
      const double change = ma != 0.0 ? (mb - ma) / std::abs(ma) : 0.0;
      const double worse = def->higher_is_better ? -change : change;
      const double spread = std::max(sa.at("iqr_over_median").number(),
                                     sb->at("iqr_over_median").number());
      const std::vector<double> va = values(wa, metric);
      const std::vector<double> vb = values(*wb, metric);
      const bool b_always_better =
          !va.empty() && !vb.empty() &&
          (def->higher_is_better
               ? *std::min_element(vb.begin(), vb.end()) >
                     *std::max_element(va.begin(), va.end())
               : *std::max_element(vb.begin(), vb.end()) <
                     *std::min_element(va.begin(), va.end()));
      std::string verdict = "ok";
      if (ma == 0.0 && mb == 0.0) {
        verdict = "ok";
      } else if (spread > bound && !b_always_better) {
        verdict = "unresolved";
        ++unresolved;
      } else if (worse > bound) {
        verdict = "regressed";
        ++regressed;
      }
      out << std::left << std::setw(17) << wname << std::setw(28) << metric
          << std::right << std::setw(11) << fmt(ma) << std::setw(11) << fmt(mb)
          << std::setw(8) << fmt(100.0 * change, 3) << "%" << std::setw(7)
          << fmt(100.0 * bound, 3) << "%  " << verdict
          << (it == gated.end() ? " (report-only)" : "") << "\n";
    }
  }
  out << regressed << " regressed, " << unresolved << " unresolved\n";
  return regressed;
}

std::string result_line(const RunResult& run, const json::Value& benchmark,
                        bool traced) {
  json::Value line = json::Value::object();
  bool correct = run.correct;
  json::Value metrics = json::Value::object();
  const auto& source = traced ? run.layers : run.metrics;
  for (const std::string& name :
       benchmark_metric_names(benchmark, traced ? "per_layer" : "end_to_end")) {
    const auto it = source.find(name);
    if (it == source.end() || !std::isfinite(it->second.value)) {
      correct = false;  // BENCHMARK.json requires every metric
      continue;
    }
    json::Value m = json::Value::object();
    m["value"] = it->second.value;
    m["unit"] = it->second.unit;
    metrics[name] = m;
  }
  line["correct"] = correct;
  line["attempted"] = std::max<std::uint64_t>(1, run.attempted);
  line["failed"] = run.failed;
  line["metrics"] = metrics;
  std::string s = line.dump(0);
  s.erase(std::remove(s.begin(), s.end(), '\n'), s.end());
  return s;
}

}  // namespace bench
