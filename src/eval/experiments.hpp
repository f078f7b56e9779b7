// Experiment runners: one function per IDS evaluation, shared by the bench
// binaries that regenerate the paper's tables and figures.
#ifndef NSYNC_EVAL_EXPERIMENTS_HPP
#define NSYNC_EVAL_EXPERIMENTS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/nsync.hpp"
#include "eval/dataset.hpp"
#include "eval/metrics.hpp"
#include "eval/setup.hpp"

namespace nsync::eval {

/// NSYNC result: the overall confusion plus each sub-module used alone
/// (the "Individual Sub-Module Results" columns of Tables VIII/IX).
struct NsyncResult {
  Confusion overall;
  Confusion c_disp;
  Confusion h_dist;
  Confusion v_dist;
  /// CRC-32 over the raw bytes of every print's h_disp, c_disp and
  /// h_dist_f (train prints, then test prints, each in index order): a
  /// bitwise fingerprint of the scores behind the confusions, so a
  /// backend or refactor diff sees drift the rounded FPR/TPR hides.
  /// v_dist_f is left out: its correlation distance runs through the
  /// ULP-bounded pearson_accumulate kernel, so its last bits differ
  /// between SIMD backends by contract (dsp/simd/simd.hpp).
  std::uint32_t score_crc = 0;
};

/// Runs NSYNC with the given synchronizer over one (channel, transform)
/// slice: fit on train, evaluate on test.  `r` is the OCC margin
/// (the paper uses 0.3 for NSYNC).
[[nodiscard]] NsyncResult run_nsync(const ChannelData& data,
                                    PrinterKind printer,
                                    core::SyncMethod method, double r = 0.3,
                                    std::size_t dtw_radius = 1);

/// Moore's IDS (Table V).
[[nodiscard]] Confusion run_moore(const ChannelData& data);

/// Gao's IDS (Table V).
[[nodiscard]] Confusion run_gao(const ChannelData& data);

/// Bayens' IDS (Table VI): overall plus per-sub-module confusions.
struct BayensResult {
  Confusion overall;
  Confusion sequence;
  Confusion threshold;
};
[[nodiscard]] BayensResult run_bayens(const ChannelData& data,
                                      double window_seconds);

/// Gatlin's IDS (Table VII): overall plus per-sub-module confusions.
struct GatlinResult {
  Confusion overall;
  Confusion time;
  Confusion match;
};
[[nodiscard]] GatlinResult run_gatlin(const ChannelData& data);

/// Belikovetsky's IDS (Section VIII-C text result).  `average_seconds`
/// scales the original 5 s moving-average window to the synthetic print
/// length (pass 5.0 at paper scale).
[[nodiscard]] Confusion run_belikovetsky(const ChannelData& data,
                                         double average_seconds = 5.0);

/// Wall-clock cost of synchronizing one second of signal with each method
/// (Fig. 11's "time ratio").
///
/// DWM is causal: streaming the signal through it costs the same as one
/// offline pass, so the streaming figure IS the offline figure.  DTW is
/// not causal — a real-time IDS must re-run it on the grown prefix every
/// time a hop of new data arrives (online DTW is cited as immature in
/// Section VI-A), which is what `dtw_seconds_per_signal_second` measures.
/// `dtw_offline_seconds_per_signal_second` is the cost of a single
/// after-the-fact pass, reported for transparency.
struct SyncSpeed {
  double dwm_seconds_per_signal_second = 0.0;
  double dtw_seconds_per_signal_second = 0.0;
  double dtw_offline_seconds_per_signal_second = 0.0;
};
[[nodiscard]] SyncSpeed measure_sync_speed(const ChannelData& data,
                                           PrinterKind printer,
                                           std::size_t dtw_radius = 1);

/// The side channels the evaluation keeps after Fig. 10 (Section VIII-B
/// drops TMP and PWR entirely and the raw transform of EPT).
[[nodiscard]] const std::vector<sensors::SideChannel>& retained_channels();

/// The channel rows of Tables V/VII/VIII/IX: ACC, MAG, AUD, EPT (EPT's raw
/// transform is shown greyed in the paper but still evaluated).
[[nodiscard]] const std::vector<sensors::SideChannel>& table_channels();

/// True when (ch, transform) is evaluated in Tables V-IX (excludes raw
/// EPT).
[[nodiscard]] bool is_retained(sensors::SideChannel ch, Transform t);

}  // namespace nsync::eval

#endif  // NSYNC_EVAL_EXPERIMENTS_HPP
