#include "sscor/matching/candidate_sets.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sscor/traffic/size_model.hpp"
#include "sscor/util/error.hpp"

namespace sscor {

CandidateSets CandidateSets::build(const Flow& upstream,
                                   const Flow& downstream,
                                   DurationUs max_delay,
                                   const std::optional<SizeConstraint>& size,
                                   CostMeter& cost) {
  const auto windows = scan_match_windows(upstream.timestamps(),
                                          downstream.timestamps(), max_delay,
                                          cost);
  return build_from_windows(windows, upstream, downstream, size, {}, cost);
}

CandidateSets CandidateSets::build_from_windows(
    std::span<const MatchWindow> windows, const Flow& upstream,
    const Flow& downstream, const std::optional<SizeConstraint>& size,
    std::span<const std::uint32_t> up_quantized, CostMeter& cost,
    std::span<const std::uint32_t> down_quantized) {
  CandidateSets out;
  out.ranges_.resize(windows.size());
  if (!size) {
    // Without a size filter every window is its own candidate set: index
    // the downstream packets once and let each set be its window's slice.
    std::vector<std::uint32_t> indices(downstream.size());
    std::iota(indices.begin(), indices.end(), std::uint32_t{0});
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const MatchWindow& window = windows[i];
      require(window.hi <= indices.size(),
              "matching window extends past the downstream flow");
      out.ranges_[i] = Range{window.lo, window.lo + window.size()};
    }
    out.flat_ = std::move(indices);
    return out;
  }
  std::size_t total = 0;
  for (const auto& window : windows) total += window.size();
  std::vector<std::uint32_t> flat;
  flat.reserve(total);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& window = windows[i];
    Range& range = out.ranges_[i];
    range.begin = flat.size();
    const std::uint32_t quantized_up =
        up_quantized.empty()
            ? traffic::quantize_size(upstream.packet(i).size,
                                     size->block_bytes)
            : up_quantized[i];
    for (std::uint32_t j = window.lo; j < window.hi; ++j) {
      cost.count();  // examining the candidate's size is a packet access
      const std::uint32_t quantized_down =
          down_quantized.empty()
              ? traffic::quantize_size(downstream.packet(j).size,
                                       size->block_bytes)
              : down_quantized[j];
      if (quantized_down == quantized_up) {
        flat.push_back(j);
      }
    }
    range.end = flat.size();
  }
  out.flat_ = std::move(flat);
  return out;
}

bool CandidateSets::complete() const {
  return std::all_of(ranges_.begin(), ranges_.end(),
                     [](const Range& r) { return r.begin != r.end; });
}

std::size_t CandidateSets::empty_count() const {
  return static_cast<std::size_t>(
      std::count_if(ranges_.begin(), ranges_.end(),
                    [](const Range& r) { return r.begin == r.end; }));
}

// Both prune passes only ever narrow each range over the flat array, so
// the loops below run on a raw pointer with local cursors and charge the
// meter once per range with the pointer distance — one access
// per dropped candidate plus one for reading the surviving extreme, the
// same totals the previous per-element counting produced.

bool CandidateSets::prune_allowing_gaps(CostMeter& cost,
                                        std::size_t max_empty) {
  std::size_t empties = empty_count();
  if (empties > max_empty) return false;

  const std::uint32_t* flat = flat_.data();
  std::int64_t floor = -1;
  for (auto& range : ranges_) {
    if (range.begin == range.end) continue;
    std::size_t b = range.begin;
    const std::size_t e = range.end;
    while (b != e && static_cast<std::int64_t>(flat[b]) <= floor) ++b;
    cost.count(b - range.begin + 1);
    range.begin = b;
    if (b == e) {
      // A packet just lost its last candidate: treat it as lost too, if
      // the budget allows.
      if (++empties > max_empty) return false;
      continue;
    }
    floor = flat[b];
  }

  std::int64_t ceiling = std::numeric_limits<std::int64_t>::max();
  for (auto it = ranges_.rbegin(); it != ranges_.rend(); ++it) {
    Range& range = *it;
    if (range.begin == range.end) continue;
    const std::size_t b = range.begin;
    std::size_t e = range.end;
    while (e != b && static_cast<std::int64_t>(flat[e - 1]) >= ceiling) --e;
    cost.count(range.end - e + 1);
    range.end = e;
    if (b == e) {
      if (++empties > max_empty) return false;
      continue;
    }
    ceiling = flat[e - 1];
  }
  pruned_ = true;
  return true;
}

bool CandidateSets::prune(CostMeter& cost) {
  // Forward pass: the i-th packet's candidate must exceed the smallest
  // feasible candidate of packet i-1, so drop any prefix at or below it.
  const std::uint32_t* flat = flat_.data();
  std::int64_t floor = -1;
  for (auto& range : ranges_) {
    std::size_t b = range.begin;
    const std::size_t e = range.end;
    while (b != e && static_cast<std::int64_t>(flat[b]) <= floor) ++b;
    cost.count(b - range.begin + 1);  // drops + reading the new minimum
    range.begin = b;
    if (b == e) return false;
    floor = flat[b];
  }

  // Backward pass: symmetric, with strictly decreasing maxima.
  std::int64_t ceiling = std::numeric_limits<std::int64_t>::max();
  for (auto it = ranges_.rbegin(); it != ranges_.rend(); ++it) {
    Range& range = *it;
    const std::size_t b = range.begin;
    std::size_t e = range.end;
    while (e != b && static_cast<std::int64_t>(flat[e - 1]) >= ceiling) --e;
    cost.count(range.end - e + 1);
    range.end = e;
    if (b == e) return false;
    ceiling = flat[e - 1];
  }
  pruned_ = true;
  return true;
}

}  // namespace sscor
