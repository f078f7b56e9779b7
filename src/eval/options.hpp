// Shared command-line options for the experiment binaries.
#ifndef NSYNC_EVAL_OPTIONS_HPP
#define NSYNC_EVAL_OPTIONS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/setup.hpp"

namespace nsync::eval {

/// Parses `value` as a base-10 unsigned integer for `flag`.  Throws
/// std::invalid_argument ("<flag>: missing value" for a null value,
/// "<flag>: bad number '<value>'" unless the value is plain digits that
/// fit in 64 bits).  Shared by the bench options below and the fleet
/// examples.
[[nodiscard]] std::uint64_t parse_u64(std::string_view flag,
                                      const char* value);

struct CliOptions {
  EvalScale scale = EvalScale::quick();
  std::vector<PrinterKind> printers = {PrinterKind::kUm3, PrinterKind::kRm3};
  /// Worker threads for the runtime pool; 0 = automatic (the
  /// NSYNC_THREADS environment variable when set, otherwise the
  /// hardware concurrency).
  std::size_t threads = 0;
  bool verbose = false;
  bool help = false;

  /// Parses common flags:
  ///   --paper-scale      Table I repetition counts (slow)
  ///   --tiny             minimal dataset (CI smoke)
  ///   --seed N           master dataset seed
  ///   --train N          benign training runs
  ///   --benign N         benign test runs
  ///   --attacks N        runs per attack type
  ///   --printer UM3|RM3  restrict to one printer
  ///   --threads N        runtime pool workers (0 = auto)
  ///   --verbose          progress output
  ///   --help             usage
  /// Throws std::invalid_argument on malformed flags.
  [[nodiscard]] static CliOptions parse(int argc, const char* const* argv);

  /// Applies `threads` to the global runtime pool
  /// (runtime::set_worker_count).  Every bench binary calls this right
  /// after parse(), before any dataset or experiment work starts.
  void configure_runtime() const;

  /// Usage text for --help.
  [[nodiscard]] static std::string usage(const std::string& program);
};

}  // namespace nsync::eval

#endif  // NSYNC_EVAL_OPTIONS_HPP
