// Extension experiment (beyond the paper): multi-channel fusion.
//
// Section VIII-B observes that h_disp is a property of the printing
// process, not of any single side channel — so per-channel NSYNC verdicts
// carry partially independent errors and can be fused.  This bench
// compares single-channel NSYNC/DWM against ACC+AUD(+MAG) fusion under
// each voting rule and the learned-weight policy, then stress-tests the
// score-based WeightedPolicy against majority voting under sensor faults:
// at every fault rate the weighted arm's decision threshold is swept over
// its recorded fused scores and its TPR is read at the majority arm's
// FPR (or tighter).  A continuous score can only refine the operating
// points a 2-of-3 vote offers, so weighted TPR should dominate.
//
//   ./bench_ext_fusion [common eval flags] [--json path]
//                      [--context key=value]...
//
// --context adds provenance to the JSON context block (run_benches.sh
// passes git_sha and build_type).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/fusion.hpp"
#include "eval/dataset.hpp"
#include "eval/experiments.hpp"
#include "eval/fault_tolerance.hpp"
#include "eval/options.hpp"
#include "eval/table.hpp"

using namespace nsync;
using namespace nsync::eval;

namespace {

/// Best achievable operating point (max TPR, then min FPR) with
/// FPR <= target, over thresholds drawn from the recorded scores
/// (verdict = score > threshold).
struct MatchedPoint {
  double threshold = 0.0;
  double fpr = 0.0;
  double tpr = 0.0;
};

MatchedPoint tpr_at_matched_fpr(const std::vector<double>& scores,
                                const std::vector<std::uint8_t>& malicious,
                                double target_fpr) {
  std::size_t pos = 0, neg = 0;
  for (std::uint8_t m : malicious) (m ? pos : neg)++;
  std::vector<double> cand = scores;
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  MatchedPoint best;
  best.threshold = cand.empty() ? 0.0 : cand.back();
  bool found = false;
  for (double t : cand) {
    std::size_t tp = 0, fp = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] > t) (malicious[i] ? tp : fp)++;
    }
    const double fpr =
        neg == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(neg);
    const double tpr =
        pos == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(pos);
    if (fpr <= target_fpr + 1e-12 &&
        (!found || tpr > best.tpr ||
         (tpr == best.tpr && fpr < best.fpr))) {
      best = {t, fpr, tpr};
      found = true;
    }
  }
  return best;
}

struct SweepRow {
  double rate = 0.0;
  double majority_fpr = 0.0;
  double majority_tpr = 0.0;
  double weighted_native_fpr = 0.0;
  double weighted_native_tpr = 0.0;
  MatchedPoint weighted;
};

struct PrinterSweep {
  PrinterKind printer = PrinterKind::kUm3;
  std::vector<SweepRow> rows;
};

void emit_json(const std::string& path, const bench::Context& context,
               const EvalScale& scale,
               const std::vector<PrinterSweep>& sweeps) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"fusion\",\n  ";
  context.write(out, "\"reps\": 1");
  out << ",\n  \"seed\": " << scale.seed
      << ",\n  \"criterion\": \"weighted_tpr >= majority_tpr at matched"
         " FPR on every point\",\n  \"printers\": [\n";
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const PrinterSweep& ps = sweeps[s];
    out << "    {\"printer\": \"" << printer_name(ps.printer)
        << "\", \"points\": [\n";
    for (std::size_t i = 0; i < ps.rows.size(); ++i) {
      const SweepRow& r = ps.rows[i];
      out << "      {\"fault_rate\": " << r.rate
          << ", \"majority_fpr\": " << r.majority_fpr
          << ", \"majority_tpr\": " << r.majority_tpr
          << ", \"weighted_fpr\": " << r.weighted.fpr
          << ", \"weighted_tpr\": " << r.weighted.tpr
          << ", \"weighted_threshold\": " << r.weighted.threshold
          << ", \"weighted_native_fpr\": " << r.weighted_native_fpr
          << ", \"weighted_native_tpr\": " << r.weighted_native_tpr << "}"
          << (i + 1 < ps.rows.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (s + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Extract the bench-local --json and --context flags before the shared
  // parser sees them.
  std::string json_path;
  bench::Context context;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--context" && i + 1 < argc) {
      context.add(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  CliOptions opt;
  try {
    opt = CliOptions::parse(static_cast<int>(args.size()), args.data());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (opt.help) {
    std::cout << CliOptions::usage(argv[0]) << "  --json path        write "
              << "BENCH_fusion.json-style results\n"
              << "  --context k=v      provenance for the JSON context "
                 "block (repeatable)\n";
    return 0;
  }
  opt.configure_runtime();

  std::cout << "EXTENSION: multi-channel fusion of NSYNC/DWM verdicts\n"
            << "(expected shape: 'any' keeps TPR 1.00 and can only raise\n"
            << " FPR; 'majority'/'all' trade TPR for a lower FPR; "
               "'weighted'\n matches the best vote on clean data and "
               "dominates majority\n at matched FPR once sensors fault)\n\n";

  const std::vector<sensors::SideChannel> kFused = {
      sensors::SideChannel::kAcc, sensors::SideChannel::kAud,
      sensors::SideChannel::kMag};

  std::vector<PrinterSweep> sweeps;
  AsciiTable table({"Printer", "Detector", "FPR/TPR", "Accuracy"});
  AsciiTable matched({"Printer", "FaultRate", "Majority FPR/TPR",
                      "Weighted FPR/TPR@match", "Thresh", "Verdict"});
  for (PrinterKind printer : opt.printers) {
    Dataset ds(printer, opt.scale, kFused,
               opt.verbose ? [](std::size_t d, std::size_t t) {
                 std::cerr << "\rsimulating " << d << "/" << t << std::flush;
               } : Dataset::ProgressFn{});
    if (opt.verbose) std::cerr << "\n";

    // Single-channel rows for comparison.
    std::map<sensors::SideChannel, ChannelData> data;
    for (sensors::SideChannel ch : kFused) {
      data.emplace(ch, ds.channel_data(ch, Transform::kRaw));
      const NsyncResult r =
          run_nsync(data.at(ch), printer, core::SyncMethod::kDwm, 0.3);
      table.add_row({printer_name(printer),
                     sensors::side_channel_name(ch) + " alone",
                     r.overall.fpr_tpr(),
                     fmt(r.overall.balanced_accuracy())});
    }

    // Fusion rows: the three voting rules plus the learned-weight policy.
    auto fused_row = [&](std::shared_ptr<core::FusionPolicy> policy,
                         const std::string& label) {
      core::FusionIds fused(std::move(policy));
      for (sensors::SideChannel ch : kFused) {
        core::NsyncConfig cfg;
        cfg.sync = core::SyncMethod::kDwm;
        cfg.dwm = dwm_params_for(printer, data.at(ch).sample_rate);
        cfg.r = 0.3;
        fused.add_channel(sensors::side_channel_name(ch),
                          data.at(ch).reference.signal, cfg);
      }
      std::vector<core::FusionIds::SignalMap> train;
      for (std::size_t i = 0; i < data.at(kFused[0]).train.size(); ++i) {
        core::FusionIds::SignalMap run;
        for (sensors::SideChannel ch : kFused) {
          run[sensors::side_channel_name(ch)] =
              data.at(ch).train[i].signal;
        }
        train.push_back(std::move(run));
      }
      fused.fit(train);

      Confusion c;
      for (std::size_t i = 0; i < data.at(kFused[0]).test.size(); ++i) {
        core::FusionIds::SignalMap obs;
        for (sensors::SideChannel ch : kFused) {
          obs[sensors::side_channel_name(ch)] =
              data.at(ch).test[i].sig.signal;
        }
        c.add(fused.detect(obs).intrusion,
              data.at(kFused[0]).test[i].malicious);
      }
      table.add_row({printer_name(printer), "fusion(" + label + ")",
                     c.fpr_tpr(), fmt(c.balanced_accuracy())});
    };
    for (core::FusionRule rule :
         {core::FusionRule::kAny, core::FusionRule::kMajority,
          core::FusionRule::kAll}) {
      fused_row(std::make_shared<core::VotingPolicy>(rule),
                core::fusion_rule_name(rule));
    }
    fused_row(std::make_shared<core::WeightedPolicy>(), "weighted");

    // Fault-injection sweep: majority voting vs the weighted policy read
    // at the majority arm's FPR.  Same health knobs as the fault bench:
    // short benchmark prints need offline_consecutive sized to fire.
    core::HealthPolicy health;
    health.history = 12;
    health.offline_consecutive = 6;
    health.recovery_consecutive = 8;
    const std::vector<double> kRates = {0.0, 0.005, 0.01, 0.02, 0.05};

    const FaultSweepResult maj =
        run_fault_sweep(data, printer, kRates, opt.scale.seed,
                        core::FusionRule::kMajority, /*r=*/0.3, health);
    const FaultSweepResult wgt = run_fault_sweep(
        data, printer, kRates, opt.scale.seed,
        std::make_shared<core::WeightedPolicy>(), /*r=*/0.3, health);

    PrinterSweep ps;
    ps.printer = printer;
    for (std::size_t p = 0; p < kRates.size(); ++p) {
      const FaultSweepPoint& mp = maj.points[p];
      const FaultSweepPoint& wp = wgt.points[p];
      SweepRow row;
      row.rate = kRates[p];
      row.majority_fpr = mp.fused.fpr();
      row.majority_tpr = mp.fused.tpr();
      row.weighted_native_fpr = wp.fused.fpr();
      row.weighted_native_tpr = wp.fused.tpr();
      row.weighted =
          tpr_at_matched_fpr(wp.fused_scores, wp.malicious, row.majority_fpr);
      const char* verdict = row.weighted.tpr > row.majority_tpr ? ">"
                            : row.weighted.tpr == row.majority_tpr ? "="
                                                                   : "<";
      matched.add_row(
          {printer_name(printer), fmt(row.rate, 3),
           mp.fused.fpr_tpr(),
           fmt(row.weighted.fpr, 2) + " / " + fmt(row.weighted.tpr, 2),
           fmt(row.weighted.threshold, 3), verdict});
      ps.rows.push_back(row);
    }
    sweeps.push_back(std::move(ps));
  }
  table.print(std::cout);
  std::cout << "\nFault sweep — weighted TPR at the majority arm's FPR\n";
  matched.print(std::cout);

  if (!json_path.empty()) emit_json(json_path, context, opt.scale, sweeps);
  return 0;
}
