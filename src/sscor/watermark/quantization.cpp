#include "sscor/watermark/quantization.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sscor/util/error.hpp"

namespace sscor {
namespace {

/// Smallest value >= ipd whose quantization index round(value / step) has
/// parity `bit`.
DurationUs next_cell_centre(DurationUs ipd, DurationUs step,
                            std::uint8_t bit) {
  // Candidate indices around ipd/step; scan upward until the parity fits
  // and the centre is not below the current IPD (delays only).
  std::int64_t q = ipd / step;  // floor for non-negative ipd
  while (true) {
    if ((q & 1) == bit) {
      const DurationUs centre = q * step;
      if (centre >= ipd) return centre;
      // The centre is below the IPD but still decodes correctly as long
      // as ipd stays within the decoder's cell.  parity_of computes
      // round((ipd + s/2) / s), which rounds half *up*: index q covers the
      // half-open cell [centre - s/2, centre + (s - s/2)).  An IPD exactly
      // at centre + s/2 (even s) therefore belongs to the *next* cell, so
      // the upper comparison must be strict and use s - s/2, not s/2.
      if (ipd - centre < step - step / 2) return ipd;  // already decodes right
    }
    ++q;
  }
}

std::uint8_t parity_of(DurationUs ipd, DurationUs step) {
  const std::int64_t q = (ipd + step / 2) / step;  // round for ipd >= 0
  return static_cast<std::uint8_t>(q & 1);
}

}  // namespace

QimEmbedder::QimEmbedder(QimParams params, std::uint64_t key)
    : params_(params), key_(key) {
  params_.schedule_params().validate();
  require(params_.step > 0, "quantization step must be positive");
}

QimWatermarkedFlow QimEmbedder::embed(const Flow& input,
                                      const Watermark& watermark) const {
  require(watermark.size() == params_.bits,
          "watermark length does not match the configured bit count");
  auto schedule =
      KeySchedule::create(params_.schedule_params(), input.size(), key_);

  std::vector<DurationUs> delay(input.size(), 0);
  for (std::uint32_t bit = 0; bit < params_.bits; ++bit) {
    const std::uint8_t value = watermark.bit(bit);
    const BitPlan& plan = schedule.bit_plan(bit);
    for (const auto* group : {&plan.group1, &plan.group2}) {
      for (const auto& pair : *group) {
        const DurationUs ipd =
            input.timestamp(pair.second) - input.timestamp(pair.first);
        const DurationUs target = next_cell_centre(ipd, params_.step, value);
        delay[pair.second] += target - ipd;
      }
    }
  }

  std::vector<PacketRecord> packets(input.packets().begin(),
                                    input.packets().end());
  TimeUs previous = std::numeric_limits<TimeUs>::min();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].timestamp =
        std::max(packets[i].timestamp + delay[i], previous);
    previous = packets[i].timestamp;
  }
  return QimWatermarkedFlow{Flow(std::move(packets), input.id()),
                            std::move(schedule), watermark, params_};
}

std::optional<Watermark> decode_qim_positional(const KeySchedule& schedule,
                                               DurationUs step,
                                               const Flow& suspicious) {
  require(step > 0, "quantization step must be positive");
  if (suspicious.size() <= schedule.max_packet_index()) {
    return std::nullopt;
  }
  const std::vector<TimeUs>& ts = suspicious.timestamps();
  std::vector<std::uint8_t> bits;
  bits.reserve(schedule.params().bits);
  for (const auto& plan : schedule.bit_plans()) {
    int ones = 0;
    int total = 0;
    for (const auto* group : {&plan.group1, &plan.group2}) {
      for (const auto& pair : *group) {
        const DurationUs ipd = ts[pair.second] - ts[pair.first];
        ones += parity_of(std::max<DurationUs>(ipd, 0), step);
        ++total;
      }
    }
    bits.push_back(static_cast<std::uint8_t>(2 * ones > total ? 1 : 0));
  }
  return Watermark(std::move(bits));
}

}  // namespace sscor
