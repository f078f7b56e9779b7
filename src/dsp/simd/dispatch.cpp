// Backend resolution for the SIMD kernel table.
//
// One Ops table per compiled-in backend; the active one is chosen once on
// first use (best ISA the host supports, overridable with the NSYNC_SIMD
// environment variable) and held in an atomic pointer so tests and
// ablations can flip backends at runtime without a data race.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "dsp/simd/kernels.hpp"

namespace nsync::dsp::simd {
namespace {

// Field order must match struct Ops exactly.
#define NSYNC_SIMD_OPS_ENTRIES(ns)                                        \
  ns::radix2_pass, ns::radix2_pass_pair, ns::scale2,                      \
      ns::cmul_split_inplace, ns::rfft_untangle, ns::rfft_untangle_product, \
      ns::irfft_untangle, ns::deinterleave,                                \
      ns::interleave, ns::subtract_scalar, ns::normalize_windows,          \
      ns::clamp_weight_argmax, ns::real_dft_magnitude, ns::channel_sums,   \
      ns::sum,                                                             \
      ns::subtract_scalar_energy, ns::pearson_accumulate, ns::prefix_sums, \
      ns::crc32_update

const Ops kScalarOps{Isa::kScalar, "scalar", NSYNC_SIMD_OPS_ENTRIES(scalar)};
#if defined(NSYNC_SIMD_HAVE_AVX2)
const Ops kAvx2Ops{Isa::kAvx2, "avx2", NSYNC_SIMD_OPS_ENTRIES(avx2)};
#endif

#undef NSYNC_SIMD_OPS_ENTRIES

// Callers only pass ISAs that backend_available() accepted, so a backend
// that is not compiled in never reaches the scalar fallback here.
const Ops* table_for([[maybe_unused]] Isa isa) {
#if defined(NSYNC_SIMD_HAVE_AVX2)
  if (isa == Isa::kAvx2) return &kAvx2Ops;
#endif
  return &kScalarOps;
}

std::optional<Isa> parse_isa_name(const char* s) {
  if (std::strcmp(s, "scalar") == 0) return Isa::kScalar;
  if (std::strcmp(s, "avx2") == 0) return Isa::kAvx2;
  return std::nullopt;
}

Isa initial_isa() {
  Isa isa = best_supported_isa();
  if (const char* env = std::getenv("NSYNC_SIMD")) {
    const std::optional<Isa> wanted = parse_isa_name(env);
    if (wanted && backend_available(*wanted)) isa = *wanted;
  }
  return isa;
}

std::atomic<const Ops*>& active_slot() {
  static std::atomic<const Ops*> slot{table_for(initial_isa())};
  return slot;
}

}  // namespace

const Ops& ops() { return *active_slot().load(std::memory_order_acquire); }

Isa active_isa() { return ops().isa; }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa best_supported_isa() {
  return backend_available(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

bool backend_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(NSYNC_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("pclmul");
#else
      return false;
#endif
  }
  return false;
}

bool set_backend(Isa isa) {
  if (!backend_available(isa)) return false;
  active_slot().store(table_for(isa), std::memory_order_release);
  return true;
}

bool built_with_simd() {
#if defined(NSYNC_SIMD_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

}  // namespace nsync::dsp::simd
