// google-benchmark micro benchmarks for the hot paths: FFT (cached vs
// uncached plans, complex vs real-input), sliding correlation (naive vs
// FFT — the TDE ablation), one DWM window step, the steady-state DWM
// streaming loop, Table III spectrograms and single spectrogram columns,
// FastDTW, the CRC-32 that checksums frames and checkpoints, one session
// refresh at growing print lengths, and end-to-end dataset generation
// across runtime pool sizes.
//
// Accepts `--json <path>` in addition to the standard benchmark flags:
// shorthand for --benchmark_out=<path> --benchmark_out_format=json, used
// by run_benches.sh to emit BENCH_micro.json.
//
// Every case also reports `mad`, the median absolute deviation of its
// repetitions, next to google-benchmark's mean/median/stddev/cv
// aggregates (run with --benchmark_repetitions=N, N >= 2, as
// run_benches.sh does).
//
// The SIMD-dispatched kernels (rfft, cross-correlation, sliding Pearson,
// the TDEB epilogue) report roofline counters: `flops` (flop/s, from an
// analytic per-iteration flop model) and bytes_per_second, so
// BENCH_micro.json can be compared against the host's peak directly.
// The JSON context carries the resolved dispatch backend (`simd_isa`) so
// scalar and vector runs are distinguishable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/dtw.hpp"
#include "core/dwm.hpp"
#include "core/tde.hpp"
#include "dsp/fft.hpp"
#include "dsp/reference/reference.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/stft.hpp"
#include "dsp/xcorr.hpp"
#include "engine/monitor_engine.hpp"
#include "eval/dataset.hpp"
#include "eval/setup.hpp"
#include "runtime/thread_pool.hpp"
#include "signal/checkpoint.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;

namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  signal::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

signal::Signal random_signal(std::size_t frames, std::size_t channels,
                             std::uint64_t seed) {
  signal::Rng rng(seed);
  signal::Signal s(frames, channels, 1000.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      s(n, c) = rng.normal();
    }
  }
  return s;
}

// BENCHMARK plus the `mad` aggregate.
#define NSYNC_BENCHMARK(fn) \
  BENCHMARK(fn)->ComputeStatistics("mad", bench::median_abs_deviation)

/// Attaches roofline counters: `flops` (flop/s) from an analytic flop
/// model of the kernel and bytes/s from its unavoidable memory traffic.
/// Both are approximate (plan-table loads and scratch spills are not
/// modeled) but good enough to place the kernel against the host peak.
void set_roofline(benchmark::State& state, double flops_per_iter,
                  double bytes_per_iter) {
  state.counters["flops"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes_per_iter));
}

/// ~2.5 n log2 n real flops for a real-input FFT of size n (half the
/// standard 5 n log2 n complex radix-2 count).
double rfft_flops(std::size_t n) {
  return n < 2 ? 0.0
               : 2.5 * static_cast<double>(n) *
                     std::log2(static_cast<double>(n));
}

void BM_FftRadix2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dsp::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto copy = data;
    dsp::fft_radix2(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
NSYNC_BENCHMARK(BM_FftRadix2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FftCached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dsp::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto copy = data;
    dsp::fft_radix2(copy);  // plan-cache path (twiddle + bitrev tables)
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
NSYNC_BENCHMARK(BM_FftCached)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FftUncached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dsp::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto copy = data;
    dsp::fft_radix2_uncached(copy);  // recomputes twiddles every call
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
NSYNC_BENCHMARK(BM_FftUncached)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Rfft(benchmark::State& state) {
  // Real-input transform on the same sizes as BM_FftCached: the half-size
  // complex trick should come in well under the complex transform (the
  // acceptance bar is >= 1.5x at the DWM-relevant sizes).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::sin(0.1 * static_cast<double>(i));
  }
  for (auto _ : state) {
    auto bins = dsp::rfft(data);
    benchmark::DoNotOptimize(bins);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // Traffic model: read n reals, write n/2+1 complex bins.
  set_roofline(state, rfft_flops(n),
               static_cast<double>(n * 8 + (n / 2 + 1) * 16));
}
NSYNC_BENCHMARK(BM_Rfft)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(32768);

void BM_Irfft(benchmark::State& state) {
  // Inverse real transform on BM_Rfft's sizes and signal.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::sin(0.1 * static_cast<double>(i));
  }
  const auto bins = dsp::rfft(data);
  for (auto _ : state) {
    auto back = dsp::irfft(bins, n);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // Traffic model: read n/2+1 complex bins, write n reals.
  set_roofline(state, rfft_flops(n),
               static_cast<double>(n * 8 + (n / 2 + 1) * 16));
}
NSYNC_BENCHMARK(BM_Irfft)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(32768);

void BM_CrossCorrelateRfft(benchmark::State& state) {
  // The correlation kernel under TDE, on its workspace (zero-alloc) path,
  // for an nx-sample x and an ny-sample template.
  const auto nx = static_cast<std::size_t>(state.range(0));
  const auto ny = static_cast<std::size_t>(state.range(1));
  const auto x = random_series(nx, 31);
  const auto y = random_series(ny, 32);
  std::vector<double> out(x.size() - y.size() + 1);
  dsp::CorrelationWorkspace ws;
  for (auto _ : state) {
    dsp::cross_correlate_valid_into(x, y, out, ws);
    benchmark::DoNotOptimize(out);
  }
  // Two forward rffts + one inverse on the padded size, plus the bin
  // product (6 flops per complex multiply).
  const std::size_t m = dsp::correlation_fft_size(x.size());
  set_roofline(state, 3.0 * rfft_flops(m) + 6.0 * static_cast<double>(m / 2 + 1),
               static_cast<double>((x.size() + y.size() + out.size()) * 8));
}
// y = n/4 at three powers of two, then the TDEB window shapes (extended
// window / template) DWM runs at the Table IV rates.
NSYNC_BENCHMARK(BM_CrossCorrelateRfft)
    ->Args({1024, 256})
    ->Args({4096, 1024})
    ->Args({16384, 4096})
    ->Args({480, 400})
    ->Args({3200, 1600})
    ->Args({4800, 4000})
    ->Args({32000, 16000});

void BM_CrossCorrelateComplex(benchmark::State& state) {
  // Pre-rfft implementation (full complex FFTs, allocating) for reference.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 31);
  const auto y = random_series(n / 4, 32);
  for (auto _ : state) {
    auto out = dsp::cross_correlate_valid_complex(x, y);
    benchmark::DoNotOptimize(out);
  }
}
NSYNC_BENCHMARK(BM_CrossCorrelateComplex)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = dsp::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto out = dsp::fft(data);
    benchmark::DoNotOptimize(out);
  }
}
NSYNC_BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(4095);

void BM_SlidingPearsonNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  const auto y = random_series(n / 4, 2);
  for (auto _ : state) {
    auto s = dsp::sliding_pearson_naive(x, y);
    benchmark::DoNotOptimize(s);
  }
}
NSYNC_BENCHMARK(BM_SlidingPearsonNaive)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SlidingPearsonFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  const auto y = random_series(n / 4, 2);
  for (auto _ : state) {
    auto s = dsp::sliding_pearson_fft(x, y);
    benchmark::DoNotOptimize(s);
  }
  // Correlation transforms + centering (2 flops/sample), prefix sums
  // (3 flops/sample) and the normalization epilogue (~8 flops/window).
  const std::size_t m = dsp::correlation_fft_size(x.size());
  const std::size_t n_out = x.size() - y.size() + 1;
  set_roofline(state,
               3.0 * rfft_flops(m) + 6.0 * static_cast<double>(m / 2 + 1) +
                   5.0 * static_cast<double>(x.size()) +
                   8.0 * static_cast<double>(n_out),
               static_cast<double>((x.size() * 3 + n_out) * 8));
}
NSYNC_BENCHMARK(BM_SlidingPearsonFft)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SlidingPearsonFftInto(benchmark::State& state) {
  // Workspace (allocation-free) variant: what the TDE loop actually runs.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  const auto y = random_series(n / 4, 2);
  std::vector<double> out(x.size() - y.size() + 1);
  dsp::SlidingPearsonWorkspace ws;
  for (auto _ : state) {
    dsp::sliding_pearson_fft_into(x, y, out, ws);
    benchmark::DoNotOptimize(out);
  }
  const std::size_t m = dsp::correlation_fft_size(x.size());
  set_roofline(state,
               3.0 * rfft_flops(m) + 6.0 * static_cast<double>(m / 2 + 1) +
                   5.0 * static_cast<double>(x.size()) +
                   8.0 * static_cast<double>(out.size()),
               static_cast<double>((x.size() * 3 + out.size()) * 8));
}
NSYNC_BENCHMARK(BM_SlidingPearsonFftInto)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_TdebEpilogue(benchmark::State& state) {
  // The fused clamp + Gaussian-bias + argmax pass over a score array
  // (one call per DWM window).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto scores = random_series(n, 17);
  std::vector<double> w(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double d = (static_cast<double>(j) - 0.5 * static_cast<double>(n)) /
                     (0.1 * static_cast<double>(n));
    w[j] = std::exp(-0.5 * d * d);
  }
  for (auto _ : state) {
    auto j = dsp::simd::ops().clamp_weight_argmax(scores.data(), w.data(), n);
    benchmark::DoNotOptimize(j);
  }
  // max + multiply + compare per element; two input streams.
  set_roofline(state, 3.0 * static_cast<double>(n),
               static_cast<double>(n * 16));
}
NSYNC_BENCHMARK(BM_TdebEpilogue)->Arg(801)->Arg(4096)->Arg(16384);

void BM_Crc32(benchmark::State& state) {
  // signal::crc32 through the dispatched crc32_update kernel, from a small
  // NSFP frame (64 B) to one print_churn spec file (2 MiB).
  const auto n = static_cast<std::size_t>(state.range(0));
  signal::Rng rng(23);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    auto crc = signal::crc32(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
NSYNC_BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536)->Arg(2097152);

void BM_DwmWindowStep(benchmark::State& state) {
  // One TDEB evaluation: an nx-frame extended reference window against an
  // ny-frame observed window, centered bias.  Shapes: UM3 at 400 Hz with
  // six channels, and the two-channel AUD windows of UM3 (4 kHz) and RM3.
  const auto nx = static_cast<std::size_t>(state.range(0));
  const auto ny = static_cast<std::size_t>(state.range(1));
  const auto channels = static_cast<std::size_t>(state.range(2));
  const auto b = random_signal(nx, channels, 3);
  const auto a = random_signal(ny, channels, 4);
  const double center = 0.5 * static_cast<double>(nx - ny);
  for (auto _ : state) {
    auto j = core::estimate_delay_biased(b, signal::SignalView(a), center,
                                         0.5 * center);
    benchmark::DoNotOptimize(j);
  }
}
NSYNC_BENCHMARK(BM_DwmWindowStep)
    ->ArgNames({"nx", "ny", "ch"})
    ->Args({4096, 1600, 6})
    ->Args({32000, 16000, 2})
    ->Args({4800, 4000, 2});

void BM_DwmWindow(benchmark::State& state) {
  // Steady-state cost of one streaming DWM window: a warmed synchronizer
  // receives one hop of frames per iteration, which completes exactly one
  // window.  With reserve_windows() this path performs no heap
  // allocations (see test_alloc_hot_path.cpp).
  const std::size_t n_win = 1600, n_hop = 800, channels = 6;
  const auto reference = random_signal(1 << 17, channels, 41);
  const auto chunk = random_signal(n_hop, channels, 42);
  core::DwmParams p;
  p.n_win = n_win;
  p.n_hop = n_hop;
  p.n_ext = 400;
  p.n_sigma = 400.0;
  const std::size_t max_windows =
      (reference.frames() - n_win - p.n_ext - n_hop) / n_hop;

  auto make_warm = [&] {
    auto sync = std::make_unique<core::DwmSynchronizer>(reference, p);
    sync->reserve_windows(max_windows + 1);
    sync->push(random_signal(n_win, channels, 43));  // first window
    return sync;
  };
  auto sync = make_warm();
  for (auto _ : state) {
    if (sync->windows() >= max_windows) {
      state.PauseTiming();
      sync = make_warm();
      state.ResumeTiming();
    }
    sync->push(chunk);
    benchmark::DoNotOptimize(sync->result().h_disp.back());
  }
  state.SetItemsProcessed(state.iterations());
}
NSYNC_BENCHMARK(BM_DwmWindow);

void BM_Spectrogram(benchmark::State& state, sensors::SideChannel ch,
                    std::size_t channels) {
  // The Table III STFT of 30 s of signal at the evaluation rate: every
  // channel of every column through the spectrogram column routine.
  const double fs = eval::eval_channel_rate(ch);
  auto s = random_signal(static_cast<std::size_t>(30.0 * fs), channels, 7);
  s.set_sample_rate(fs);
  const dsp::StftConfig cfg = eval::table3_stft(ch);
  const std::size_t n_win = dsp::stft_window_samples(cfg, fs);
  const std::size_t columns =
      (s.frames() - n_win) / dsp::stft_hop_samples(cfg, fs) + 1;
  for (auto _ : state) {
    auto sp = dsp::spectrogram(s, cfg);
    benchmark::DoNotOptimize(sp);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(columns * channels));
}
// ACC 400 Hz x6 and EPT 4 kHz x1 run 20- and 33-point windows (both summed
// as a direct DFT) one channel at a time; AUD 4 kHz x2 is the largest share
// of offline_analyze's STFT.
BENCHMARK_CAPTURE(BM_Spectrogram, ACC_400Hz_x6, sensors::SideChannel::kAcc, 6)
    ->ComputeStatistics("mad", bench::median_abs_deviation)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Spectrogram, AUD_4kHz_x2, sensors::SideChannel::kAud, 2)
    ->ComputeStatistics("mad", bench::median_abs_deviation)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Spectrogram, EPT_4kHz_x1, sensors::SideChannel::kEpt, 1)
    ->ComputeStatistics("mad", bench::median_abs_deviation)
    ->Unit(benchmark::kMillisecond);

void BM_SpectrogramColumn(benchmark::State& state) {
  // One channel of one Blackman-Harris spectrogram column of n samples, on
  // the route the column takes for n (the label): a direct real DFT for
  // non-powers of two up to detail::kStftDftMaxWindow, the cached rfft
  // plan otherwise.  20 and 33 are the Table III windows at the evaluation
  // rates, 200 and 400 paper-rate ones; these rows size the crossover.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = random_series(n, 5);
  std::vector<double> row(n / 2 + 1);
  dsp::detail::StftColumn column(dsp::StftConfig{}, n, 1);
  for (auto _ : state) {
    column.compute(block.data(), row.data());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dsp::detail::stft_uses_dft(n) ? "dft" : "rfft");
  state.SetItemsProcessed(state.iterations());
}
NSYNC_BENCHMARK(BM_SpectrogramColumn)
    ->Arg(20)
    ->Arg(33)
    ->Arg(40)
    ->Arg(64)
    ->Arg(100)
    ->Arg(128)
    ->Arg(200)
    ->Arg(400);

void BM_FastDtw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_signal(n, 4, 11);
  const auto b = random_signal(n, 4, 12);
  for (auto _ : state) {
    auto r = core::fast_dtw(a, b, 1, core::DistanceMetric::kCorrelation);
    benchmark::DoNotOptimize(r);
  }
}
NSYNC_BENCHMARK(BM_FastDtw)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DwmAlign(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_signal(n, 4, 21);
  const auto b = random_signal(n, 4, 22);
  core::DwmParams p;
  p.n_win = 200;
  p.n_hop = 100;
  p.n_ext = 50;
  p.n_sigma = 25.0;
  for (auto _ : state) {
    auto r = core::DwmSynchronizer::align(a, b, p);
    benchmark::DoNotOptimize(r);
  }
}
NSYNC_BENCHMARK(BM_DwmAlign)->Arg(1024)->Arg(4096);

/// A two-channel session that has streamed `windows` windows per channel,
/// built once per size: narrow DWM windows so 72 000 of them stream in
/// about a second.
engine::MonitorEngine& streamed_session(std::size_t windows) {
  static std::map<std::size_t, std::unique_ptr<engine::MonitorEngine>> cache;
  auto& slot = cache[windows];
  if (slot) return *slot;
  core::NsyncConfig cfg;
  cfg.sync = core::SyncMethod::kDwm;
  cfg.dwm.n_win = 32;
  cfg.dwm.n_hop = 16;
  cfg.dwm.n_ext = 8;
  cfg.dwm.n_sigma = 8.0;
  const std::size_t frames = (windows - 1) * cfg.dwm.n_hop + cfg.dwm.n_win;
  core::Thresholds quiet;
  quiet.c_c = 1e9;
  quiet.h_c = 1e9;
  quiet.v_c = 1e9;
  engine::SessionSpec spec;
  spec.name = "printer";
  const std::size_t widths[] = {2, 1};
  const char* names[] = {"ACC", "AUD"};
  for (std::size_t c = 0; c < 2; ++c) {
    spec.channels.push_back(
        {names[c], random_signal(frames + 8 * cfg.dwm.n_hop, widths[c], 40 + c),
         cfg, quiet});
  }
  slot = std::make_unique<engine::MonitorEngine>();
  slot->add_session(std::move(spec));
  for (std::size_t c = 0; c < 2; ++c) {
    slot->feed(0, names[c], random_signal(frames, widths[c], 50 + c));
  }
  slot->poll_session(0);
  return *slot;
}

void BM_SessionRefresh(benchmark::State& state) {
  // One snapshot_into() of a two-channel session (both channel scores
  // and the fused verdict) after `windows` windows per channel.  Scores
  // come from running feature maxima, so the time should not grow with
  // the print.
  const auto windows = static_cast<std::size_t>(state.range(0));
  const engine::MonitorEngine& eng = streamed_session(windows);
  engine::SessionSnapshot snap;
  eng.snapshot_into(0, snap);
  if (snap.windows + 2 < windows) {
    state.SkipWithError("session streamed too few windows");
    return;
  }
  for (auto _ : state) {
    eng.snapshot_into(0, snap);
    benchmark::DoNotOptimize(snap.fused_score);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
NSYNC_BENCHMARK(BM_SessionRefresh)
    ->Arg(200)
    ->Arg(3000)
    ->Arg(36000)
    ->Arg(72000);

void BM_DatasetParallel(benchmark::State& state) {
  // End-to-end tiny-roster generation (26 simulated processes, ACC+AUD
  // rendered) across runtime pool sizes; the speedup at threads:4 vs
  // threads:1 is the headline number for the parallel runtime.
  runtime::set_worker_count(static_cast<std::size_t>(state.range(0)));
  const eval::EvalScale scale = eval::EvalScale::tiny();
  const std::vector<sensors::SideChannel> channels = {
      sensors::SideChannel::kAcc, sensors::SideChannel::kAud};
  for (auto _ : state) {
    eval::Dataset ds(eval::PrinterKind::kUm3, scale, channels);
    benchmark::DoNotOptimize(ds.test().size());
  }
  state.SetItemsProcessed(state.iterations());
  runtime::set_worker_count(0);  // restore automatic sizing
}
NSYNC_BENCHMARK(BM_DatasetParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN plus a `--json <path>` shorthand (and a `--threads <n>`
// passthrough so run_benches.sh can forward NSYNC_THREADS like it does to
// the table/figure binaries).
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::vector<std::string> storage;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[++i]);
      storage.emplace_back("--benchmark_out_format=json");
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      runtime::set_worker_count(
          static_cast<std::size_t>(std::atoi(argv[++i])));
    } else {
      args.push_back(argv[i]);
    }
  }
  for (auto& s : storage) args.push_back(s.data());
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  // Resolved dispatch backend into the JSON context, so scalar-baseline
  // and vector runs of BENCH_micro.json are self-describing.
  benchmark::AddCustomContext(
      "simd_isa", nsync::dsp::simd::isa_name(nsync::dsp::simd::active_isa()));
  benchmark::AddCustomContext(
      "simd_best_supported",
      nsync::dsp::simd::isa_name(nsync::dsp::simd::best_supported_isa()));
  benchmark::AddCustomContext(
      "simd_built", nsync::dsp::simd::built_with_simd() ? "true" : "false");
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
