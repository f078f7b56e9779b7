#include "eval/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "runtime/thread_pool.hpp"

namespace nsync::eval {

std::uint64_t parse_u64(std::string_view flag, const char* value) {
  if (value == nullptr) {
    throw std::invalid_argument(std::string(flag) + ": missing value");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  // strtoull skips leading blanks, silently wraps a leading '-' to a huge
  // value and saturates on overflow; accept only plain in-range digits.
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(flag) + ": bad number '" +
                                value + "'");
  }
  return v;
}

CliOptions CliOptions::parse(int argc, const char* const* argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--paper-scale") {
      opt.scale = EvalScale::paper();
    } else if (arg == "--tiny") {
      opt.scale = EvalScale::tiny();
    } else if (arg == "--seed") {
      opt.scale.seed = parse_u64(arg, next());
    } else if (arg == "--train") {
      opt.scale.train_count = parse_u64(arg, next());
    } else if (arg == "--benign") {
      opt.scale.benign_test_count = parse_u64(arg, next());
    } else if (arg == "--attacks") {
      opt.scale.malicious_per_attack = parse_u64(arg, next());
    } else if (arg == "--threads") {
      opt.threads = parse_u64(arg, next());
    } else if (arg == "--printer") {
      const char* v = next();
      if (v == nullptr) {
        throw std::invalid_argument("--printer: missing value");
      }
      const std::string_view p = v;
      if (p == "UM3" || p == "um3") {
        opt.printers = {PrinterKind::kUm3};
      } else if (p == "RM3" || p == "rm3") {
        opt.printers = {PrinterKind::kRm3};
      } else if (p == "both") {
        opt.printers = {PrinterKind::kUm3, PrinterKind::kRm3};
      } else {
        throw std::invalid_argument("--printer: expected UM3, RM3 or both");
      }
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(arg) +
                                  "' (try --help)");
    }
  }
  return opt;
}

void CliOptions::configure_runtime() const {
  nsync::runtime::set_worker_count(threads);
}

std::string CliOptions::usage(const std::string& program) {
  return "usage: " + program +
         " [--paper-scale | --tiny] [--seed N] [--train N] [--benign N]\n"
         "       [--attacks N] [--printer UM3|RM3|both] [--threads N]\n"
         "       [--verbose]\n"
         "\n"
         "Regenerates one of the paper's tables/figures on the synthetic\n"
         "printer testbed.  Defaults use a reduced dataset that finishes in\n"
         "minutes; --paper-scale restores Table I repetition counts.\n"
         "--threads N sizes the parallel runtime pool (0 = automatic: the\n"
         "NSYNC_THREADS environment variable when set, else all cores).\n";
}

}  // namespace nsync::eval
