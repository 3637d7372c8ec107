// Low-level flat-array kernels of the batched decode engine.
//
// Every kernel exists in two variants that compute bit-identical results
// (all arithmetic is integer):
//
//   *_scalar      the straightforward reference loop,
//   *_vectorized  the same loop written for auto-vectorization — restrict-
//                 qualified pointers, no aliasing, no per-element function
//                 calls — so -O2/-O3 can emit SIMD without intrinsics.
//
// Both variants are always compiled; the SSCOR_SIMD CMake option only picks
// the *default* dispatch, and set_kernel_mode() overrides it at runtime so
// tests and benches compare the two inside one binary.  Because results are
// identical either way, the choice is invisible to the cost-replay parity
// suite.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sscor/util/time.hpp"

namespace sscor::batch {

enum class KernelMode : std::uint8_t {
  kScalar,
  kVectorized,
};

inline constexpr KernelMode kDefaultKernelMode =
#if defined(SSCOR_SIMD) && SSCOR_SIMD
    KernelMode::kVectorized;
#else
    KernelMode::kScalar;
#endif

inline std::atomic<KernelMode>& kernel_mode_flag() {
  static std::atomic<KernelMode> mode{kDefaultKernelMode};
  return mode;
}

inline KernelMode kernel_mode() {
  return kernel_mode_flag().load(std::memory_order_relaxed);
}

/// Runtime override of the dispatch default (tests/benches); results are
/// identical in either mode.
inline void set_kernel_mode(KernelMode mode) {
  kernel_mode_flag().store(mode, std::memory_order_relaxed);
}

namespace kernels {

// --- gather: out[i] = ts[idx[i]] -----------------------------------------

inline void gather_timestamps_scalar(const TimeUs* ts,
                                     const std::uint32_t* idx, TimeUs* out,
                                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ts[idx[i]];
}

inline void gather_timestamps_vectorized(const TimeUs* __restrict ts,
                                         const std::uint32_t* __restrict idx,
                                         TimeUs* __restrict out,
                                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ts[idx[i]];
}

inline void gather_timestamps(const TimeUs* ts, const std::uint32_t* idx,
                              TimeUs* out, std::size_t n) {
  if (kernel_mode() == KernelMode::kVectorized) {
    gather_timestamps_vectorized(ts, idx, out, n);
  } else {
    gather_timestamps_scalar(ts, idx, out, n);
  }
}

// --- signed pair differences ---------------------------------------------
// out[p] = sign[p] * (slot_ts[second[p]] - slot_ts[first[p]]), sign ∈ {±1}.

inline void pair_diffs_scalar(const TimeUs* slot_ts,
                              const std::uint32_t* first,
                              const std::uint32_t* second,
                              const std::int8_t* sign, DurationUs* out,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<DurationUs>(sign[i]) *
             (slot_ts[second[i]] - slot_ts[first[i]]);
  }
}

inline void pair_diffs_vectorized(const TimeUs* __restrict slot_ts,
                                  const std::uint32_t* __restrict first,
                                  const std::uint32_t* __restrict second,
                                  const std::int8_t* __restrict sign,
                                  DurationUs* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<DurationUs>(sign[i]) *
             (slot_ts[second[i]] - slot_ts[first[i]]);
  }
}

inline void pair_diffs(const TimeUs* slot_ts, const std::uint32_t* first,
                       const std::uint32_t* second, const std::int8_t* sign,
                       DurationUs* out, std::size_t n) {
  if (kernel_mode() == KernelMode::kVectorized) {
    pair_diffs_vectorized(slot_ts, first, second, sign, out, n);
  } else {
    pair_diffs_scalar(slot_ts, first, second, sign, out, n);
  }
}

// --- per-bit reduction ---------------------------------------------------
// bit_diffs[b] = sum of pair_diffs[b*ppb .. (b+1)*ppb) — the unnormalised
// D value of bit b (the pair array is bit-major with a fixed pairs/bit).

inline void reduce_bits_scalar(const DurationUs* pair_diffs,
                               std::size_t bits, std::size_t pairs_per_bit,
                               DurationUs* out) {
  for (std::size_t b = 0; b < bits; ++b) {
    DurationUs sum = 0;
    for (std::size_t p = 0; p < pairs_per_bit; ++p) {
      sum += pair_diffs[b * pairs_per_bit + p];
    }
    out[b] = sum;
  }
}

inline void reduce_bits_vectorized(const DurationUs* __restrict pair_diffs,
                                   std::size_t bits,
                                   std::size_t pairs_per_bit,
                                   DurationUs* __restrict out) {
  for (std::size_t b = 0; b < bits; ++b) {
    DurationUs sum = 0;
    for (std::size_t p = 0; p < pairs_per_bit; ++p) {
      sum += pair_diffs[b * pairs_per_bit + p];
    }
    out[b] = sum;
  }
}

inline void reduce_bits(const DurationUs* pair_diffs, std::size_t bits,
                        std::size_t pairs_per_bit, DurationUs* out) {
  if (kernel_mode() == KernelMode::kVectorized) {
    reduce_bits_vectorized(pair_diffs, bits, pairs_per_bit, out);
  } else {
    reduce_bits_scalar(pair_diffs, bits, pairs_per_bit, out);
  }
}

// --- size quantization sweep ---------------------------------------------
// out[i] = quantize_size(sizes[i], block) = ceil(sizes[i]/block)*block —
// the same formula as traffic::quantize_size, inlined flat so the whole
// suspicious flow quantizes in one pass (the windows overlap heavily, so
// per-examination quantization recomputes each packet many times).

inline void quantize_sizes_scalar(const std::uint32_t* sizes,
                                  std::uint32_t block, std::uint32_t* out,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (sizes[i] + block - 1) / block * block;
  }
}

inline void quantize_sizes_vectorized(const std::uint32_t* __restrict sizes,
                                      std::uint32_t block,
                                      std::uint32_t* __restrict out,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (sizes[i] + block - 1) / block * block;
  }
}

inline void quantize_sizes(const std::uint32_t* sizes, std::uint32_t block,
                           std::uint32_t* out, std::size_t n) {
  if (kernel_mode() == KernelMode::kVectorized) {
    quantize_sizes_vectorized(sizes, block, out, n);
  } else {
    quantize_sizes_scalar(sizes, block, out, n);
  }
}

}  // namespace kernels
}  // namespace sscor::batch
