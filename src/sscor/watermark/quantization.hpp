// The quantization-based IPD watermark of Wang & Reeves (CCS 2003) — the
// paper's reference [6] and the predecessor of the probabilistic scheme.
//
// A selected IPD carries one (redundant copy of a) bit via quantization-
// index modulation: the embedder delays the pair's second packet so the
// IPD lands on the nearest quantization-cell centre of the right parity
// (even multiples of the step s encode 0, odd multiples encode 1); the
// decoder reads the parity of round(ipd / s) and majority-votes the r
// redundant copies.  Robust while the IPD jitter stays below ~s/2, after
// which it degrades sharply — unlike the probabilistic scheme's graceful
// decay.  bench/ablation_schemes contrasts the two.
//
// The pair selection reuses the probabilistic scheme's key schedule:
// 2r disjoint pairs per bit, all acting as redundant copies (the two
// groups carry no sign meaning here).

#pragma once

#include <cstdint>
#include <optional>

#include "sscor/flow/flow.hpp"
#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

struct QimParams {
  std::uint32_t bits = 24;
  /// Redundant IPDs per bit = 2 * redundancy (matching the probabilistic
  /// schedule layout; the decoder majority-votes all of them).
  std::uint32_t redundancy = 4;
  std::uint32_t pair_offset = 1;
  /// Quantization step s.  Tolerates IPD jitter up to ~s/2.
  DurationUs step = millis(400);

  WatermarkParams schedule_params() const {
    WatermarkParams params;
    params.bits = bits;
    params.redundancy = redundancy;
    params.pair_offset = pair_offset;
    params.embedding_delay = step;  // only used for validation bounds
    return params;
  }
};

/// Result of embedding, mirroring WatermarkedFlow.
struct QimWatermarkedFlow {
  Flow flow;
  KeySchedule schedule;
  Watermark watermark;
  QimParams params;
};

class QimEmbedder {
 public:
  QimEmbedder(QimParams params, std::uint64_t key);

  /// Embeds by delaying each pair's second packet onto the nearest
  /// correct-parity cell centre at or above the current IPD (delays only),
  /// then restores FIFO order.  Per-packet delay is below 2*step.
  QimWatermarkedFlow embed(const Flow& input,
                           const Watermark& watermark) const;

 private:
  QimParams params_;
  std::uint64_t key_;
};

/// Positional decoding: majority vote of round(ipd/s) parities per bit.
/// Returns nullopt when the flow is shorter than the highest pair index.
std::optional<Watermark> decode_qim_positional(const KeySchedule& schedule,
                                               DurationUs step,
                                               const Flow& suspicious);

}  // namespace sscor
