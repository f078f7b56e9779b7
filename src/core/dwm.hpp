// Dynamic Window Matching (Section VI-B) — the paper's core contribution.
//
// DWM slides a pair of windows across the observed signal `a` and the
// reference signal `b`.  For each window index i it runs biased TDE (TDEB)
// to locate a's window inside an extended window of b centered at the
// current low-frequency displacement estimate, producing the horizontal
// displacement array h_disp.  An inertial tracker h_disp_low (Eq. 12)
// prevents runaway, and the Gaussian bias stabilizes periodic/noisy
// windows.
//
// Unlike DTW, DWM is causal: it only ever looks at samples of `a` up to the
// current window, so it runs in real time while the print progresses
// (the DwmSynchronizer::push streaming interface).
#ifndef NSYNC_CORE_DWM_HPP
#define NSYNC_CORE_DWM_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tde.hpp"
#include "signal/ring_buffer.hpp"
#include "signal/signal.hpp"

namespace nsync::signal {
class ByteWriter;
class ByteReader;
}  // namespace nsync::signal

namespace nsync::core {

/// DWM parameters (Section VI-C, Table IV).  All counts are in samples of
/// the signal being synchronized (raw samples or spectrogram columns).
struct DwmParams {
  std::size_t n_win = 0;    ///< window width
  std::size_t n_hop = 0;    ///< hop between windows (default n_win / 2)
  std::size_t n_ext = 0;    ///< extended-window half width
  double n_sigma = 0.0;     ///< TDEB Gaussian std (samples)
  double eta = 0.1;         ///< inertial gain of the low-frequency tracker
  TdeOptions tde;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;
};

/// Output of a DWM run; all arrays share length = number of windows
/// processed.
///
/// `valid[i]` is 0 when window i was degenerate — the observed window (or
/// the reference search window) was flat or contained non-finite samples,
/// so TDEB could not produce a meaningful displacement.  For such windows
/// the synchronizer holds the previous displacement estimate instead of
/// scoring garbage: h_disp[i] = h_disp_low[i] = h_disp_low[i-1].
struct DwmResult {
  std::vector<double> h_disp;      ///< horizontal displacement per window
  std::vector<double> h_disp_low;  ///< low-frequency (inertial) component
  std::vector<double> h_dist;      ///< |h_disp| (horizontal distance)
  std::vector<std::uint8_t> valid; ///< 1 = window scored, 0 = degenerate
};

/// Streaming DWM.  Owns a copy of the reference and consumes observed
/// frames incrementally; results for completed windows are available
/// immediately after each push.
///
/// The observed stream is held in a drop-front FrameRingBuffer: at the
/// start of every push, frames that no future (or in-flight) window can
/// read are discarded, so steady-state memory is O(n_win + n_hop + chunk)
/// regardless of how long the print runs.  Per-window TDEB evaluations
/// reuse a TdeWorkspace, making the whole window step allocation-free at
/// steady state.
class DwmSynchronizer {
 public:
  /// `reference` is b; throws on invalid params / channel mismatch checks
  /// happen at push time.
  DwmSynchronizer(nsync::signal::Signal reference, DwmParams params);

  /// Appends observed frames (channel count must match the reference) and
  /// processes every window that became complete.  Returns the number of
  /// windows newly processed.  Frames of completed windows from
  /// *previous* pushes are dropped from memory on entry; frames of
  /// windows completed by this push stay readable (via observed()) until
  /// the next push.
  std::size_t push(const nsync::signal::SignalView& frames);

  /// Drops every observed frame no future window reads: those before the
  /// next window's origin, or all of them once the reference is
  /// exhausted.  push() does this on entry; a caller done with this
  /// push's windows calls it early, so dead frames are neither held nor
  /// checkpointed until the next push.
  void drop_consumed();

  /// Pre-allocates the result arrays for `n_windows` windows, the
  /// observed buffer for the corresponding retained span and the TDEB
  /// workspace for the unclamped window shape, so no window step after
  /// this — the first included — performs a heap allocation.
  void reserve_windows(std::size_t n_windows);

  /// True when the reference has been exhausted: the next window of `a`
  /// would need reference samples beyond the end of b.  Windows are no
  /// longer processed once exhausted.
  [[nodiscard]] bool reference_exhausted() const {
    return reference_exhausted_;
  }

  /// Number of windows processed so far.
  [[nodiscard]] std::size_t windows() const { return result_.h_disp.size(); }

  [[nodiscard]] const DwmResult& result() const { return result_; }
  [[nodiscard]] const nsync::signal::Signal& reference() const {
    return reference_;
  }
  /// The retained suffix of the observed stream.  Frames are addressed by
  /// their logical stream index (observed().view(n1, n2)); indices below
  /// observed().start() have been dropped.
  [[nodiscard]] const nsync::signal::FrameRingBuffer& observed() const {
    return observed_;
  }

  /// Serializes the streaming state — retained observed frames, per-window
  /// result arrays, the inertial tracker — plus fingerprints of the
  /// reference and parameters (checkpointing).  The reference itself is
  /// not stored; the restoring synchronizer must be constructed with the
  /// same reference, which the fingerprint enforces.  Save and restore
  /// run one field list (signal/fields.hpp).
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state.  Throws CheckpointError:
  /// kMismatch when the fingerprints disagree bitwise with this
  /// synchronizer's reference/params, kCorrupt on internally inconsistent
  /// state (array lengths, a valid or exhausted byte other than 0/1).  On
  /// throw, this synchronizer is unchanged.
  void restore_state(nsync::signal::ByteReader& r);

  /// One-shot convenience: runs DWM over the whole of `a` against `b`.
  [[nodiscard]] static DwmResult align(const nsync::signal::SignalView& a,
                                       const nsync::signal::SignalView& b,
                                       const DwmParams& params);

 private:
  /// `fingerprint` false skips the reference CRC (save_state then writes a
  /// meaningless fingerprint): for align()'s one-shot runs only.
  DwmSynchronizer(nsync::signal::Signal reference, DwmParams params,
                  bool fingerprint);

  bool process_next_window();
  template <class Io>
  void fields(Io& io, auto& observed, auto& result, auto& h_low_prev,
              auto& exhausted) const;

  nsync::signal::Signal reference_;          // b
  nsync::signal::FrameRingBuffer observed_;  // sliding suffix of a
  DwmParams params_;
  DwmResult result_;
  TdeWorkspace tde_ws_;           // reused by every window's TDEB call
  double h_disp_low_prev_ = 0.0;  // h_disp_low[i-1], seeded with 0
  bool reference_exhausted_ = false;
  // CRC-32 of the reference samples, computed once at construction (the
  // reference never changes) so save_state stays O(streaming state).
  std::uint32_t reference_crc_ = 0;
};

}  // namespace nsync::core

#endif  // NSYNC_CORE_DWM_HPP
