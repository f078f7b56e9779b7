// Tests for the evaluation harness: metrics, CLI options, setups, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "eval/options.hpp"
#include "eval/setup.hpp"
#include "eval/table.hpp"

namespace nsync::eval {
namespace {

TEST(Confusion, CountsAndRates) {
  Confusion c;
  c.add(true, true);    // TP
  c.add(true, true);    // TP
  c.add(false, true);   // FN
  c.add(true, false);   // FP
  c.add(false, false);  // TN
  c.add(false, false);  // TN
  c.add(false, false);  // TN
  EXPECT_EQ(c.tp(), 2u);
  EXPECT_EQ(c.fn(), 1u);
  EXPECT_EQ(c.fp(), 1u);
  EXPECT_EQ(c.tn(), 3u);
  EXPECT_NEAR(c.tpr(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.fpr(), 0.25, 1e-12);
  EXPECT_NEAR(c.accuracy(), 5.0 / 7.0, 1e-12);
  EXPECT_NEAR(c.balanced_accuracy(), ((1.0 - 0.25) + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(Confusion, EmptyIsZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.fpr(), 0.0);
  EXPECT_DOUBLE_EQ(c.tpr(), 0.0);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.0);
  EXPECT_EQ(c.total(), 0u);
}

TEST(Confusion, MergeAccumulates) {
  Confusion a, b;
  a.add(true, true);
  b.add(false, false);
  b.add(true, false);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.fp(), 1u);
}

TEST(Confusion, PaperStyleFormat) {
  Confusion c;
  c.add(true, true);
  c.add(false, false);
  EXPECT_EQ(c.fpr_tpr(), "0.00/1.00");
}

TEST(Options, DefaultsAndFlags) {
  const char* argv[] = {"prog", "--seed", "7", "--train", "3", "--benign",
                        "5", "--attacks", "2", "--printer", "RM3",
                        "--verbose"};
  const CliOptions opt = CliOptions::parse(12, argv);
  EXPECT_EQ(opt.scale.seed, 7u);
  EXPECT_EQ(opt.scale.train_count, 3u);
  EXPECT_EQ(opt.scale.benign_test_count, 5u);
  EXPECT_EQ(opt.scale.malicious_per_attack, 2u);
  ASSERT_EQ(opt.printers.size(), 1u);
  EXPECT_EQ(opt.printers[0], PrinterKind::kRm3);
  EXPECT_TRUE(opt.verbose);
  EXPECT_FALSE(opt.help);
}

TEST(Options, ScalePresets) {
  const char* tiny[] = {"prog", "--tiny"};
  EXPECT_LT(CliOptions::parse(2, tiny).scale.train_count, 10u);
  const char* paper[] = {"prog", "--paper-scale"};
  const CliOptions p = CliOptions::parse(2, paper);
  EXPECT_EQ(p.scale.train_count, 50u);
  EXPECT_EQ(p.scale.benign_test_count, 100u);
  EXPECT_EQ(p.scale.malicious_per_attack, 20u);
  EXPECT_DOUBLE_EQ(p.scale.gear_diameter, 60.0);
}

TEST(Options, ErrorsAndHelp) {
  const char* bad[] = {"prog", "--bogus"};
  EXPECT_THROW(CliOptions::parse(2, bad), std::invalid_argument);
  const char* missing[] = {"prog", "--seed"};
  EXPECT_THROW(CliOptions::parse(2, missing), std::invalid_argument);
  const char* badp[] = {"prog", "--printer", "XYZ"};
  EXPECT_THROW(CliOptions::parse(3, badp), std::invalid_argument);
  const char* help[] = {"prog", "--help"};
  EXPECT_TRUE(CliOptions::parse(2, help).help);
  EXPECT_NE(CliOptions::usage("prog").find("usage"), std::string::npos);
}

TEST(Options, ParseU64AcceptsOnlyPlainInRangeDigits) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "12x", "-1", "+1", " 1",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)parse_u64("--n", bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)parse_u64("--n", nullptr), std::invalid_argument);
  try {
    (void)parse_u64("--shards", "abc");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--shards: bad number 'abc'");
  }
}

TEST(Setup, PrinterNamesAndTransforms) {
  EXPECT_EQ(printer_name(PrinterKind::kUm3), "UM3");
  EXPECT_EQ(printer_name(PrinterKind::kRm3), "RM3");
  EXPECT_EQ(transform_name(Transform::kRaw), "Raw");
  EXPECT_EQ(transform_name(Transform::kSpectrogram), "Spectro.");
}

TEST(Setup, Table4MatchesPaper) {
  const DwmSeconds um3 = table4_dwm(PrinterKind::kUm3);
  EXPECT_DOUBLE_EQ(um3.t_win, 4.0);
  EXPECT_DOUBLE_EQ(um3.t_hop, 2.0);
  EXPECT_DOUBLE_EQ(um3.t_ext, 2.0);
  EXPECT_DOUBLE_EQ(um3.t_sigma, 1.0);
  EXPECT_DOUBLE_EQ(um3.eta, 0.1);
  const DwmSeconds rm3 = table4_dwm(PrinterKind::kRm3);
  EXPECT_DOUBLE_EQ(rm3.t_win, 1.0);
  EXPECT_DOUBLE_EQ(rm3.t_hop, 0.5);
  EXPECT_DOUBLE_EQ(rm3.t_ext, 0.1);
  EXPECT_DOUBLE_EQ(rm3.t_sigma, 0.05);
}

TEST(Setup, DwmParamsResolveAndValidate) {
  for (PrinterKind p : {PrinterKind::kUm3, PrinterKind::kRm3}) {
    for (double fs : {20.0, 80.0, 100.0, 240.0, 400.0, 4000.0}) {
      const auto params = dwm_params_for(p, fs);
      EXPECT_NO_THROW(params.validate()) << printer_name(p) << " " << fs;
      EXPECT_LE(params.n_hop, params.n_win);
    }
  }
}

TEST(Setup, Table3StftMatchesPaper) {
  const auto acc = table3_stft(sensors::SideChannel::kAcc);
  EXPECT_DOUBLE_EQ(acc.delta_f, 20.0);
  EXPECT_DOUBLE_EQ(acc.delta_t, 1.0 / 80.0);
  EXPECT_EQ(acc.window, dsp::WindowType::kBlackmanHarris);
  const auto pwr = table3_stft(sensors::SideChannel::kPwr);
  EXPECT_DOUBLE_EQ(pwr.delta_f, 60.0);
  EXPECT_EQ(pwr.window, dsp::WindowType::kBoxcar);
  const auto mag = table3_stft(sensors::SideChannel::kMag);
  EXPECT_DOUBLE_EQ(mag.delta_f, 5.0);
  EXPECT_DOUBLE_EQ(mag.delta_t, 1.0 / 20.0);
}

TEST(Setup, MakePrinterSetupSlicesBenignProgram) {
  const PrinterSetup um3 =
      make_printer_setup(PrinterKind::kUm3, EvalScale::tiny());
  EXPECT_FALSE(um3.benign_program.empty());
  EXPECT_GT(um3.benign_program.layer_starts().size(), 1u);
  const PrinterSetup rm3 =
      make_printer_setup(PrinterKind::kRm3, EvalScale::tiny());
  // Delta printers print at the origin.
  EXPECT_DOUBLE_EQ(rm3.slicer.bed_center_x, 0.0);
  EXPECT_EQ(rm3.machine.kinematics, printer::KinematicsType::kDelta);
}

TEST(Table, FormatsAlignedColumns) {
  AsciiTable t({"A", "Column"});
  t.add_row({"x", "1"});
  t.add_row({"yyyy", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
}

TEST(Table, FmtDigits) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

}  // namespace
}  // namespace nsync::eval
