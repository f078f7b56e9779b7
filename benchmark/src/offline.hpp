// offline_analyze: the batch/forensic path, in process on one thread.  The
// Table VIII grid (UM3 and RM3 x 6 channels x {raw, spectrogram}); each
// operation is STFT (spectrogram cells), then analyze(), then detect().
#ifndef BENCH_E2E_OFFLINE_HPP
#define BENCH_E2E_OFFLINE_HPP

#include <memory>
#include <vector>

#include "dsp/stft.hpp"
#include "workloads.hpp"

namespace bench {

/// One grid cell: a channel of one printer in one transform.
struct OfflineCell {
  std::size_t kind = 0;
  std::size_t channel = 0;
  bool spectrogram = false;
  Signal reference;             ///< in the cell's transform
  std::vector<Signal> train;    ///< in the cell's transform
  nsync::core::NsyncConfig config;
  nsync::dsp::StftConfig stft;  ///< spectrogram cells
  std::vector<const Signal*> pool;  ///< raw observed prints
  std::vector<bool> pool_attacked;
};

struct OfflineData {
  std::vector<KindData> kinds;  ///< raw, unfitted: the cells fit on set-up
  std::vector<OfflineCell> cells;
};

[[nodiscard]] OfflineData make_offline_data(const RunOptions& opt);
[[nodiscard]] RunResult run_offline(const OfflineData& data,
                                    const RunOptions& opt);

}  // namespace bench

#endif  // BENCH_E2E_OFFLINE_HPP
