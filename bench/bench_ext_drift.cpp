// Extension experiment (beyond the paper): fixed vs drift-adaptive OCC
// thresholds under slow sensor drift.
//
// Sweeps the total gain drift accumulated over a fleet of sequential
// prints (an aging amplifier / warming sensor mount) and reports, per
// drift magnitude, the FPR/TPR of two deployment models scoring the same
// corrupted streams: the paper's calibrate-once thresholds, and the
// per-device baseline registry that re-learns thresholds from prints
// that finished benign with healthy channels.  The expected shape: as
// drift grows, the fixed arm's false-positive rate climbs toward 1 in
// the late (fully drifted) half of the run while the adaptive arm stays
// near 0 — and both arms keep detecting every tampered print, because
// attacked prints freeze (never feed) the baseline.
//
//   ./bench_ext_drift [--prints n] [--frames n] [--attack-every k]
//                     [--drifts a,b,c] [--r x] [--json path]
//                     [--context key=value]...
//
// --context adds provenance to the JSON context block (run_benches.sh
// passes git_sha and build_type).
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/drift.hpp"
#include "eval/table.hpp"

using namespace nsync;
using namespace nsync::eval;

namespace {

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    out.push_back(std::stod(tok));
  }
  return out;
}

std::string pct(double v) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << 100.0 * v << "%";
  return os.str();
}

struct Point {
  double total_drift = 0.0;
  DriftScenarioResult res;
};

void emit_json(const std::string& path, const bench::Context& context,
               const DriftScenarioConfig& base,
               const std::vector<Point>& points) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"drift\",\n  ";
  context.write(out, "\"reps\": 1");
  out << ",\n  \"prints\": " << base.prints
      << ",\n  \"frames\": " << base.frames << ",\n  \"attack_every\": "
      << base.attack_every << ",\n  \"r\": " << base.r
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"total_gain_drift\": " << p.total_drift
        << ", \"fixed_fpr\": " << p.res.fixed.fpr()
        << ", \"fixed_tpr\": " << p.res.fixed.tpr()
        << ", \"adaptive_fpr\": " << p.res.adaptive.fpr()
        << ", \"adaptive_tpr\": " << p.res.adaptive.tpr()
        << ", \"fixed_late_fpr\": " << p.res.fixed_late.fpr()
        << ", \"adaptive_late_fpr\": " << p.res.adaptive_late.fpr()
        << ", \"baseline_prints\": " << p.res.baseline_prints
        << ", \"baseline_frozen\": " << p.res.baseline_frozen << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  DriftScenarioConfig base;
  base.prints = 24;
  base.frames = 4096;
  base.attack_every = 6;
  base.train_prints = 5;
  base.r = 0.5;
  base.policy.r = base.r;
  // The last point exceeds the adaptive arm's max_drift envelope on
  // purpose: past it, adaptation is clamped at the anchor's bound and the
  // adaptive arm degrades too — the same bound that stops a slow-drift
  // attack from riding the baseline out of detection range.
  std::vector<double> total_drifts = {0.0, 0.06, 0.12, 0.18, 0.24};
  std::string json_path;
  bench::Context context;
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--prints") {
      base.prints = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--frames") {
      base.frames = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--attack-every") {
      base.attack_every = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--drifts") {
      total_drifts = parse_list(next());
    } else if (arg == "--r") {
      base.r = std::stod(next());
      base.policy.r = base.r;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--context") {
      context.add(next());
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--prints n] [--frames n] [--attack-every k]"
                   " [--drifts a,b,c] [--r x] [--json path] [--trace]"
                   " [--context key=value]...\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }

  std::cout << "EXTENSION: fixed vs drift-adaptive OCC thresholds\n"
            << "(" << base.prints << " sequential prints, every "
            << base.attack_every << "th tampered; total gain drift applied"
            << " across the run)\n"
            << "(expected shape: fixed FPR climbs with drift — late-half"
            << " worst — while adaptive\n holds near 0 until the drift"
            << " exceeds its max_drift envelope; both arms detect\n every"
            << " attack; attacked and alarming prints freeze the baseline)"
            << "\n\n";

  std::vector<Point> points;
  for (double total : total_drifts) {
    DriftScenarioConfig cfg = base;
    // Spread the total multiplicative drift uniformly over every input
    // frame of the run (each print contributes frames-1 observed frames).
    const double input_frames =
        static_cast<double>(cfg.prints) * static_cast<double>(cfg.frames - 1);
    cfg.gain_drift_per_frame =
        total == 0.0 ? 0.0 : std::expm1(std::log1p(total) / input_frames);
    points.push_back({total, run_drift_scenario(cfg)});
    if (trace) {
      std::cout << "total drift " << pct(total) << ":\n";
      for (const DriftPrintRecord& rec : points.back().res.prints) {
        std::cout << "  print " << rec.print << (rec.attack ? " ATK" : "    ")
                  << " gain=" << rec.drift_gain
                  << " fixed=" << rec.fixed_intrusion
                  << " adaptive=" << rec.adaptive_intrusion
                  << " thr(c,h,v)=" << rec.adaptive_thresholds.c_c << ","
                  << rec.adaptive_thresholds.h_c << ","
                  << rec.adaptive_thresholds.v_c << "\n";
      }
    }
  }

  AsciiTable table({"TotalDrift", "Fixed FPR/TPR", "Adaptive FPR/TPR",
                    "FixedLateFPR", "AdaptLateFPR", "Folds", "Frozen"});
  for (const Point& p : points) {
    table.add_row({pct(p.total_drift),
                   pct(p.res.fixed.fpr()) + " / " + pct(p.res.fixed.tpr()),
                   pct(p.res.adaptive.fpr()) + " / " +
                       pct(p.res.adaptive.tpr()),
                   pct(p.res.fixed_late.fpr()), pct(p.res.adaptive_late.fpr()),
                   std::to_string(p.res.baseline_prints),
                   std::to_string(p.res.baseline_frozen)});
  }
  table.print(std::cout);

  if (!json_path.empty()) emit_json(json_path, context, base, points);
  return 0;
}
