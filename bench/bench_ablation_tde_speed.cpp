// Ablation: TDE implementation speed (the performance half of the TDE
// ablation; the correctness half lives in tests/test_xcorr.cpp and
// tests/test_tde.cpp).
//
// Times one TDEB evaluation at DWM-realistic window shapes for the three
// implementations of the sliding correlation underneath:
//   naive        O(Nx * Ny) direct dot products,
//   complex FFT  full complex transforms + prefix-sum normalization
//                (the pre-rfft implementation, allocating),
//   rfft         real-input half-size transforms, one channel at a time
//                on a reusable workspace, with the fused
//                clamp+bias+argmax epilogue (the production DWM path,
//                allocation-free), timed under the scalar backend and
//                under the best SIMD backend the host supports.
// Shapes: the 6-channel windows of a UM3 ACC+AUD roster, and the
// 2-channel AUD windows of UM3 at 4 kHz and RM3.
// All variants return identical delay estimates; only the cost differs.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <vector>

#include "core/tde.hpp"
#include "dsp/reference/reference.hpp"
#include "dsp/simd/simd.hpp"
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
            << "window, y = observed window).\n\n";

  namespace simd = nsync::dsp::simd;
  const simd::Isa best = simd::best_supported_isa();
  std::cout << "dispatch: best backend = " << simd::isa_name(best) << "\n\n";

  AsciiTable table({"n_win", "n_ext", "ch", "naive (us)", "complex FFT (us)",
                    "rfft scalar (us)", "rfft simd (us)", "simd speedup",
                    "total speedup"});
  struct Shape {
    std::size_t n_win, n_ext, channels;
  };
  for (const Shape shape :
       {Shape{400, 100, 6}, Shape{1600, 400, 6}, Shape{6400, 1600, 6},
        Shape{16000, 8000, 2}, Shape{4000, 400, 2}}) {
    const auto x = random_signal(shape.n_win + 2 * shape.n_ext,
                                 shape.channels, 7);
    const auto y = random_signal(shape.n_win, shape.channels, 8);
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
    simd::set_backend(simd::Isa::kScalar);
    const double t_scalar = time_us([&] {
      auto j = core::estimate_delay_biased(x, y, center, sigma, {}, ws);
      (void)j;
    });
    simd::set_backend(best);
    const double t_simd = time_us([&] {
      auto j = core::estimate_delay_biased(x, y, center, sigma, {}, ws);
      (void)j;
    });

    table.add_row({std::to_string(shape.n_win), std::to_string(shape.n_ext),
                   std::to_string(shape.channels), fmt(t_naive, 1),
                   fmt(t_complex, 1), fmt(t_scalar, 1), fmt(t_simd, 1),
                   fmt(t_scalar / t_simd, 1) + "x",
                   fmt(t_naive / t_simd, 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n(simd speedup isolates the vector backend on the same\n"
            << "per-channel rfft path; total speedup is the production path\n"
            << "vs the naive seed.)\n";
  return 0;
}
