// Regenerates Table VIII: NSYNC with DWM as the dynamic synchronizer,
// per printer x transform x side channel, with overall and per-sub-module
// FPR/TPR.  Paper reference values are printed alongside for comparison.
// The last column is NsyncResult::score_crc, the CRC-32 of every print's
// backend-invariant scores, so diffs of this output across backends or
// commits are bitwise, not only to two decimals.
#include <cstdio>
#include <iostream>

#include "eval/dataset.hpp"
#include "eval/experiments.hpp"
#include "eval/options.hpp"
#include "eval/table.hpp"

using namespace nsync;
using namespace nsync::eval;

int main(int argc, char** argv) {
  CliOptions opt;
  try {
    opt = CliOptions::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (opt.help) {
    std::cout << CliOptions::usage(argv[0]);
    return 0;
  }
  opt.configure_runtime();

  std::cout << "TABLE VIII: Detection Results for NSYNC with DWM (r = 0.3)\n"
            << "(format: FPR/TPR; paper shape: overall TPR 1.00 on every\n"
            << " retained channel except raw EPT, FPR <= 0.02)\n\n";

  AsciiTable table({"P", "T", "Side Ch.", "Overall", "c_disp", "h_dist",
                    "v_dist", "Score CRC"});
  for (PrinterKind printer : opt.printers) {
    Dataset ds(printer, opt.scale, table_channels(),
               opt.verbose ? [](std::size_t d, std::size_t t) {
                 std::cerr << "\rsimulating " << d << "/" << t << std::flush;
               } : Dataset::ProgressFn{});
    if (opt.verbose) std::cerr << "\n";
    for (Transform t : {Transform::kRaw, Transform::kSpectrogram}) {
      for (sensors::SideChannel ch : ds.channels()) {
        const ChannelData data = ds.channel_data(ch, t);
        const NsyncResult r =
            run_nsync(data, printer, core::SyncMethod::kDwm, 0.3);
        char score_crc[9];
        std::snprintf(score_crc, sizeof(score_crc), "%08x",
                      static_cast<unsigned>(r.score_crc));
        table.add_row({printer_name(printer), transform_name(t),
                       sensors::side_channel_name(ch), r.overall.fpr_tpr(),
                       r.c_disp.fpr_tpr(), r.h_dist.fpr_tpr(),
                       r.v_dist.fpr_tpr(), score_crc});
        if (opt.verbose) {
          std::cerr << printer_name(printer) << " " << transform_name(t)
                    << " " << sensors::side_channel_name(ch) << " done\n";
        }
      }
    }
  }
  table.print(std::cout);
  return 0;
}
