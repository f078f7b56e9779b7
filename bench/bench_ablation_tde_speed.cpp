// Ablation: TDE implementation speed (the performance half of the TDE
// ablation; the correctness half lives in tests/test_xcorr.cpp and
// tests/test_tde.cpp).
//
// Times one TDEB evaluation at DWM-realistic window shapes for the three
// implementations of the sliding correlation underneath:
//   naive        O(Nx * Ny) direct dot products,
//   complex FFT  full complex transforms + prefix-sum normalization
//                (the pre-rfft implementation, allocating),
//   rfft seq     real-input half-size transforms, one channel at a time
//                on a reusable workspace (the pre-batching production
//                path),
//   batched      all channels through one lane-interleaved BatchedRfftPlan
//                with row-dispatched pre/post passes and the fused
//                clamp+bias+argmax epilogue (the production DWM path,
//                allocation-free), timed under the scalar backend and
//                under the best SIMD backend the host supports.
// All variants return identical delay estimates; only the cost differs.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <vector>

#include "core/tde.hpp"
#include "dsp/reference/reference.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/xcorr.hpp"
#include "eval/options.hpp"
#include "eval/table.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

using namespace nsync;
using namespace nsync::eval;

namespace {

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

// TDEB via the pre-rfft staged pipeline: per-channel complex-FFT sliding
// correlation, averaged, clamped, biased, argmax.  Mirrors the library's
// allocating path with dsp::sliding_pearson_fft_complex underneath.
std::size_t tdeb_complex_fft(const signal::SignalView& x,
                             const signal::SignalView& y, double center,
                             double sigma) {
  const std::size_t n_out = x.frames() - y.frames() + 1;
  std::vector<double> scores(n_out, 0.0);
  std::vector<double> xc(x.frames()), yc(y.frames());
  for (std::size_t c = 0; c < x.channels(); ++c) {
    x.channel_into(c, xc);
    y.channel_into(c, yc);
    const auto s = dsp::sliding_pearson_fft_complex(xc, yc);
    for (std::size_t n = 0; n < n_out; ++n) scores[n] += s[n];
  }
  const double inv_c = 1.0 / static_cast<double>(x.channels());
  for (auto& s : scores) s = std::max(s * inv_c, 0.0);
  auto biased = core::bias_scores(std::move(scores), center, sigma);
  std::size_t best = 0;
  for (std::size_t n = 1; n < biased.size(); ++n) {
    if (biased[n] > biased[best]) best = n;
  }
  return best;
}

// TDEB via the pre-batching production path: per-channel rfft sliding
// correlation on a reusable workspace, averaged, then the fused
// clamp + bias + argmax epilogue.
std::size_t tdeb_rfft_sequential(const signal::SignalView& x,
                                 const signal::SignalView& y, double center,
                                 double sigma, core::TdeWorkspace& ws) {
  const std::size_t n_out = x.frames() - y.frames() + 1;
  ws.scores.assign(n_out, 0.0);
  ws.chan_scores.resize(n_out);
  ws.x_chan.resize(x.frames());
  ws.y_chan.resize(y.frames());
  for (std::size_t c = 0; c < x.channels(); ++c) {
    x.channel_into(c, ws.x_chan);
    y.channel_into(c, ws.y_chan);
    dsp::sliding_pearson_fft_into(ws.x_chan, ws.y_chan, ws.chan_scores,
                                  ws.pearson);
    for (std::size_t n = 0; n < n_out; ++n) ws.scores[n] += ws.chan_scores[n];
  }
  const double inv_c = 1.0 / static_cast<double>(x.channels());
  for (auto& s : ws.scores) s *= inv_c;
  ws.bias_w.resize(n_out);
  for (std::size_t j = 0; j < n_out; ++j) {
    const double d = (static_cast<double>(j) - center) / sigma;
    ws.bias_w[j] = std::exp(-0.5 * d * d);
  }
  return dsp::simd::ops().clamp_weight_argmax(ws.scores.data(),
                                              ws.bias_w.data(), n_out);
}

// Per-call microseconds: repeat until ~100 ms of wall time accumulates.
template <typename F>
double time_us(F&& f) {
  using clock = std::chrono::steady_clock;
  f();  // warm caches / workspaces
  std::size_t reps = 0;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    f();
    ++reps;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.1);
  return 1e6 * elapsed / static_cast<double>(reps);
}

}  // namespace

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

  std::cout << "ABLATION: TDE implementation speed (one TDEB evaluation)\n"
            << "naive vs complex-FFT vs rfft-fused sliding correlation;\n"
            << "shapes follow the DWM search (x = extended reference\n"
            << "window, y = observed window, 6 channels).\n\n";

  namespace simd = nsync::dsp::simd;
  const simd::Isa best = simd::best_supported_isa();
  std::cout << "dispatch: best backend = " << simd::isa_name(best) << "\n\n";

  AsciiTable table({"n_win", "n_ext", "naive (us)", "complex FFT (us)",
                    "rfft seq (us)", "batched scalar (us)",
                    "batched simd (us)", "simd speedup", "total speedup"});
  struct Shape {
    std::size_t n_win, n_ext;
  };
  for (const Shape shape : {Shape{400, 100}, Shape{1600, 400},
                            Shape{6400, 1600}}) {
    const std::size_t channels = 6;
    const auto x = random_signal(shape.n_win + 2 * shape.n_ext, channels, 7);
    const auto y = random_signal(shape.n_win, channels, 8);
    const double center = static_cast<double>(shape.n_ext);
    const double sigma = 0.5 * static_cast<double>(shape.n_ext);

    core::TdeOptions naive_opts;
    naive_opts.use_fft = false;
    core::TdeWorkspace ws;
    const double t_naive = time_us([&] {
      auto j = core::estimate_delay_biased(x, y, center, sigma, naive_opts);
      (void)j;
    });
    const double t_complex = time_us(
        [&] { (void)tdeb_complex_fft(x, y, center, sigma); });
    const double t_seq = time_us([&] {
      auto j = tdeb_rfft_sequential(x, y, center, sigma, ws);
      (void)j;
    });
    simd::set_backend(simd::Isa::kScalar);
    const double t_batched_scalar = time_us([&] {
      auto j = core::estimate_delay_biased(x, y, center, sigma, {}, ws);
      (void)j;
    });
    simd::set_backend(best);
    const double t_batched_simd = time_us([&] {
      auto j = core::estimate_delay_biased(x, y, center, sigma, {}, ws);
      (void)j;
    });

    table.add_row({std::to_string(shape.n_win), std::to_string(shape.n_ext),
                   fmt(t_naive, 1), fmt(t_complex, 1), fmt(t_seq, 1),
                   fmt(t_batched_scalar, 1), fmt(t_batched_simd, 1),
                   fmt(t_batched_scalar / t_batched_simd, 1) + "x",
                   fmt(t_naive / t_batched_simd, 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n(simd speedup isolates the vector backend at fixed\n"
            << "batching; total speedup is the production path vs the naive\n"
            << "seed.  On AVX2 hosts the batched plan runs near parity with\n"
            << "the sequential rfft path -- its win is on scalar hosts and\n"
            << "in plan/workspace reuse -- so the per-core gain comes from\n"
            << "the dispatched kernels, not the batching alone.)\n";
  return 0;
}
