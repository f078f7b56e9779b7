// Results files: runs, per-metric summaries across runs, provenance, the
// traced/untraced comparison, --compare, and the one-line JSON result that
// run.py prints last.
#ifndef BENCH_E2E_REPORT_HPP
#define BENCH_E2E_REPORT_HPP

#include <iosfwd>
#include <string>

#include "json.hpp"
#include "workloads.hpp"

namespace bench {

/// Build, host and run context recorded in every results file.
[[nodiscard]] json::Value provenance(const RunOptions& opt);

/// Appends a run to results["workloads"][run.workload][section] and
/// recomputes that workload's summaries (median, quartiles, IQR/median and
/// run count per metric).  `section` is "runs" or "traced_runs".
void add_run(json::Value& results, const RunResult& run,
             const std::string& section);

/// Recomputes every workload's summaries and, where traced runs exist, the
/// tracing overhead per end-to-end metric (traced median / untraced
/// median - 1).
void summarize(json::Value& results);

/// Prints each workload's end-to-end summary as a table.
void print_summary(const json::Value& results, std::ostream& out);

/// Prints one run's metrics (and failed checks).
void print_run(const RunResult& run, std::ostream& out);

/// --compare: for each metric x workload, both medians, the relative
/// change, the bound and a verdict (ok / regressed / unresolved).  Returns
/// the number of regressions.
int compare(const json::Value& a, const json::Value& b,
            const json::Value& benchmark, std::ostream& out);

/// A run's one-line JSON result, run.py's last stdout line: correct,
/// attempted, failed and the BENCHMARK.json end-to-end metrics (untraced)
/// or per-layer metrics (traced).
[[nodiscard]] std::string result_line(const RunResult& run,
                                      const json::Value& benchmark, bool traced);

}  // namespace bench

#endif  // BENCH_E2E_REPORT_HPP
