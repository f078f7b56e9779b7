// bench_e2e — end-to-end and per-layer benchmark of the NSYNC fleet daemon
// and the offline analyze() path.  See benchmark/README.md.
//
//   bench_e2e --all | --workload NAME...  [--seed N] [--seconds S] [--runs R]
//             [--json FILE [--append]] [--trace FILE] [--work-dir DIR]
//             [--result-line]
//   bench_e2e --smoke
//   bench_e2e --compare A.json B.json
//
// bench_e2e_traced is the same program built with spans, the /proc split,
// the allocation hook and the layer replay; `bench_e2e --trace FILE` runs
// it after the untraced runs and merges its results.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "json.hpp"
#include "offline.hpp"
#include "report.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef BENCH_E2E_SOURCE_DIR
#error "BENCH_E2E_SOURCE_DIR must name the benchmark source directory"
#endif
#ifndef BENCH_E2E_BINARY_DIR
#error "BENCH_E2E_BINARY_DIR must name the benchmark build directory"
#endif

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace bench;

struct Cli {
  std::vector<std::string> workloads;
  RunOptions opt;
  int runs = 1;
  std::string json_path;
  bool append = false;
  std::string trace_path;
  bool result_line = false;
  bool smoke = false;
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e --all | --workload NAME... [--seed N] [--seconds S]"
               " [--runs R] [--json FILE [--append]] [--trace FILE]"
               " [--work-dir DIR] [--result-line]\n"
               "       bench_e2e --smoke\n"
               "       bench_e2e --compare A.json B.json\n"
               "workloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  cli.opt.work_dir = std::string(BENCH_E2E_BINARY_DIR) + "/e2e-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& v) {
      try {
        std::size_t used = 0;
        const double d = std::stod(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return d;
      } catch (const std::exception&) {
        usage("bad number for " + arg + ": " + v);
      }
    };
    if (arg == "--all") {
      cli.workloads = workload_names();
    } else if (arg == "--workload") {
      cli.workloads.push_back(next());
    } else if (arg == "--seed") {
      const double s = number(next());
      if (s < 0 || s != static_cast<double>(static_cast<std::uint64_t>(s))) {
        usage("--seed must be a whole number");
      }
      cli.opt.seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--seconds") {
      cli.opt.phase_s = number(next());
      if (!(cli.opt.phase_s > 0.0 && cli.opt.phase_s <= 600.0)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--runs") {
      cli.runs = static_cast<int>(number(next()));
      if (cli.runs < 1) usage("--runs must be at least 1");
    } else if (arg == "--json") {
      cli.json_path = next();
    } else if (arg == "--append") {
      cli.append = true;
    } else if (arg == "--trace") {
      cli.trace_path = next();
    } else if (arg == "--work-dir") {
      cli.opt.work_dir = next();
    } else if (arg == "--result-line") {
      cli.result_line = true;
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--compare") {
      cli.compare = {next(), next()};
    } else if (arg == "--help" || arg == "-h") {
      usage("help");
    } else {
      usage("unknown argument " + arg);
    }
  }
  for (const auto& w : cli.workloads) {
    bool known = false;
    for (const auto& n : workload_names()) known = known || n == w;
    if (!known) usage("unknown workload " + w);
  }
  if (cli.smoke) {
    cli.workloads = workload_names();
    cli.opt.smoke = true;
    cli.opt.phase_s = 2.0;
    cli.runs = 1;
    if (cli.trace_path.empty()) cli.trace_path = cli.opt.work_dir + "/smoke-trace.json";
  }
  if (cli.compare.empty() && cli.workloads.empty()) {
    usage("choose --all, --workload, --smoke or --compare");
  }
  cli.opt.work_dir = fs::absolute(cli.opt.work_dir).string();
  return cli;
}

/// Runs the sibling bench_e2e_traced with the same selection and waits.
int run_traced_sibling(const Cli& cli) {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const std::string exe = (self.parent_path() / "bench_e2e_traced").string();
  std::vector<std::string> args = {exe, "--seed", std::to_string(cli.opt.seed),
                                   "--seconds", std::to_string(cli.opt.phase_s),
                                   "--work-dir", cli.opt.work_dir, "--trace",
                                   cli.trace_path};
  for (const auto& w : cli.workloads) {
    args.push_back("--workload");
    args.push_back(w);
  }
  if (cli.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                               environ);
  if (rc != 0) {
    std::cerr << "bench_e2e: cannot start " << exe << ": " << std::strerror(rc) << "\n";
    return 1;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

/// Every BENCHMARK.json metric, with its unit, in every workload's run.
bool smoke_assertions(const json::Value& results, const json::Value& benchmark) {
  bool ok = true;
  const auto expect = [&](const json::Value& run, const std::string& section,
                          const std::string& key, const std::string& workload) {
    for (const json::Value& m : benchmark.at(section).items()) {
      const std::string name = m.at("name").string();
      const json::Value* got = run.find(key) ? run.at(key).find(name) : nullptr;
      if (got == nullptr || got->at("unit").string() != m.at("unit").string()) {
        std::cerr << "smoke: " << workload << " is missing " << name << " ["
                  << m.at("unit").string() << "]\n";
        ok = false;
      }
    }
  };
  for (const std::string& w : workload_names()) {
    const json::Value* wl = results.at("workloads").find(w);
    if (wl == nullptr || wl->find("runs") == nullptr ||
        wl->find("traced_runs") == nullptr) {
      std::cerr << "smoke: " << w << " has no untraced and traced run\n";
      ok = false;
      continue;
    }
    for (const char* section : {"runs", "traced_runs"}) {
      for (const json::Value& run : wl->at(section).items()) {
        if (!run.at("correct").boolean() || run.at("failed").number() != 0) {
          std::cerr << "smoke: " << w << " " << section << " failed its checks\n";
          ok = false;
        }
      }
    }
    expect(wl->at("runs").items().front(), "end_to_end", "metrics", w);
    expect(wl->at("traced_runs").items().front(), "per_layer", "layers", w);
  }
  return ok;
}

int run_main(const Cli& cli) {
  const json::Value benchmark =
      json::load(std::string(BENCH_E2E_SOURCE_DIR) + "/../BENCHMARK.json");
  if (!cli.compare.empty()) {
    compare(json::load(cli.compare[0]), json::load(cli.compare[1]), benchmark,
            std::cout);
    return 0;
  }
  const std::string results_path = kTraced && !cli.trace_path.empty()
                                       ? cli.trace_path
                                       : cli.json_path;
  json::Value results = json::Value::object();
  if (cli.append && !results_path.empty() && fs::exists(results_path)) {
    results = json::load(results_path);
  } else {
    results["benchmark"] = "bench_e2e";
    results["provenance"] = provenance(cli.opt);
    results["workloads"] = json::Value::object();
  }
  bool all_correct = true;
  RunResult last;
  for (const std::string& w : cli.workloads) {
    RunOptions opt = cli.opt;
    if (kTraced && !cli.trace_path.empty()) {
      opt.spans_path = fs::path(cli.trace_path).replace_extension().string() + "." +
                       w + ".spans.json";
    }
    // Inputs are generated once per workload and seed, off the clock, on
    // the 4-worker pool; every run reuses them.
    nsync::runtime::set_worker_count(4);
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<FleetData> fleet;
    std::unique_ptr<OfflineData> offline;
    if (is_fleet_workload(w)) {
      fleet = std::make_unique<FleetData>(make_fleet_data(w, opt));
    } else {
      offline = std::make_unique<OfflineData>(make_offline_data(opt));
    }
    std::cerr << "bench_e2e: " << w << " inputs generated in "
              << std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                     .count()
              << " s\n";
    for (int run = 0; run < cli.runs; ++run) {
      std::cerr << "bench_e2e: " << w << " run " << run + 1 << "/" << cli.runs
                << " (seed " << opt.seed << ")\n";
      RunResult r = fleet ? run_fleet(*fleet, opt) : run_offline(*offline, opt);
      print_run(r, std::cout);
      all_correct = all_correct && r.correct;
      add_run(results, r, kTraced ? "traced_runs" : "runs");
      last = std::move(r);
    }
  }
  if (!results_path.empty()) json::save(results_path, results);

  if (!kTraced && !cli.trace_path.empty()) {
    std::cout.flush();
    if (run_traced_sibling(cli) != 0) {
      std::cerr << "bench_e2e: traced run failed\n";
      all_correct = false;
    }
    const json::Value traced = json::load(cli.trace_path);
    for (const auto& [w, tw] : traced.at("workloads").members()) {
      if (const json::Value* runs = tw.find("traced_runs")) {
        for (const json::Value& run : runs->items()) {
          results["workloads"][w]["traced_runs"].push(run);
        }
      }
    }
    summarize(results);
    if (!cli.json_path.empty()) json::save(cli.json_path, results);
  }
  print_summary(results, std::cout);

  if (cli.smoke) {
    const bool ok = smoke_assertions(results, benchmark);
    std::cout << (ok ? "smoke: PASS" : "smoke: FAIL") << "\n";
    return ok ? 0 : 1;
  }
  if (cli.result_line) {
    std::cout << result_line(last, benchmark, kTraced) << std::endl;
  }
  return all_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    return run_main(cli);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
