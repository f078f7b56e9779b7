// Provenance for the benches that write a BENCH_*.json: the repeatable
// `--context key=value` flag and the file's "context" block.
//
//   nsync::bench::Context context;
//   ... } else if (arg == "--context") { context.add(next()); ...
//   out << "{\n  \"benchmark\": \"fleet\",\n  ";
//   context.write(out, "\"reps\": 1");
//
// The block holds the --context pairs (run_benches.sh passes git_sha and
// build_type), then hardware_concurrency and the active SIMD ISA, then the
// bench's own fields.  The repeated benches summarize their reps with
// median_of and median_abs_deviation.
#ifndef NSYNC_BENCH_BENCH_JSON_HPP
#define NSYNC_BENCH_BENCH_JSON_HPP

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/simd/simd.hpp"

namespace nsync::bench {

class Context {
 public:
  /// Adds one `key=value` pair.  Exits 2 with a message on anything else,
  /// or on a quote or backslash (the block does not escape).
  void add(const std::string& kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 ||
        kv.find_first_of("\"\\") != std::string::npos) {
      std::cerr << "--context needs key=value without quotes or "
                   "backslashes, got '"
                << kv << "'\n";
      std::exit(2);
    }
    pairs_.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
  }

  /// Writes `"context": {...}`.  `fields` are the bench's own members,
  /// already JSON (`"reps": 5, "statistic": "median"`).
  void write(std::ostream& out, const std::string& fields) const {
    out << "\"context\": {";
    for (const auto& [key, value] : pairs_) {
      out << "\"" << key << "\": \"" << value << "\", ";
    }
    out << "\"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"simd_isa\": \""
        << dsp::simd::isa_name(dsp::simd::active_isa()) << "\"";
    if (!fields.empty()) out << ", " << fields;
    out << "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// Median of `x` (the mean of the middle two for an even count; 0 when
/// empty).
inline double median_of(std::vector<double> x) {
  if (x.empty()) return 0.0;
  std::sort(x.begin(), x.end());
  const std::size_t mid = x.size() / 2;
  return x.size() % 2 == 1 ? x[mid] : 0.5 * (x[mid - 1] + x[mid]);
}

/// Median absolute deviation: median(|x - median(x)|).
inline double median_abs_deviation(const std::vector<double>& x) {
  const double m = median_of(x);
  std::vector<double> dev;
  dev.reserve(x.size());
  for (const double v : x) dev.push_back(std::abs(v - m));
  return median_of(std::move(dev));
}

}  // namespace nsync::bench

#endif  // NSYNC_BENCH_BENCH_JSON_HPP
