#include "sscor/correlation/online.hpp"

#include "sscor/util/error.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor {
namespace {

/// The configured algorithm rejects on any unmatched upstream packet.
bool requires_complete_matching(Algorithm algorithm) {
  return algorithm != Algorithm::kGreedy;
}

}  // namespace

OnlineUpstream::OnlineUpstream(WatermarkedFlow watermarked)
    : watermarked_(std::move(watermarked)),
      plan_(watermarked_.schedule, watermarked_.watermark) {}

OnlineCorrelator::OnlineCorrelator(WatermarkedFlow watermarked,
                                   CorrelatorConfig config,
                                   Algorithm algorithm, OnlineOptions options)
    : OnlineCorrelator(
          std::make_shared<const OnlineUpstream>(std::move(watermarked)),
          nullptr, config, algorithm, options) {
  owned_downstream_ = std::make_shared<AppendOnlyFlow>();
  downstream_ = owned_downstream_;
}

OnlineCorrelator::OnlineCorrelator(
    std::shared_ptr<const OnlineUpstream> upstream,
    std::shared_ptr<const AppendOnlyFlow> downstream, CorrelatorConfig config,
    Algorithm algorithm, OnlineOptions options)
    : upstream_(std::move(upstream)),
      downstream_(std::move(downstream)),
      config_(config),
      algorithm_(algorithm),
      options_(options),
      up_ts_(upstream_->timestamps()) {
  require(config.max_delay >= 0, "max delay must be non-negative");
  windows_.resize(up_ts_.size());
  final_slots_per_bit_.assign(upstream_->plan().bit_count(), 0);
  bit_checked_.assign(upstream_->plan().bit_count(), false);
}

bool OnlineCorrelator::ingest(const PacketRecord& packet) {
  require(!finished_, "ingest after finish()");
  require(owned_downstream_ != nullptr,
          "ingest() on a shared-buffer correlator; append to the shared "
          "buffer and call ingest_appended()");
  if (decided()) return false;
  owned_downstream_->append(packet);  // enforces timestamp ordering
  return ingest_appended();
}

bool OnlineCorrelator::ingest_appended() {
  require(!finished_, "ingest after finish()");
  if (decided()) return false;
  while (next_index_ < downstream_->size()) {
    const std::uint32_t j = next_index_++;
    process(j, downstream_->packet(j));
    if (decided()) return false;
  }
  return true;
}

void OnlineCorrelator::process(std::uint32_t j, const PacketRecord& packet) {
  // Windows whose upper bound this arrival crosses are now final.  (Must
  // run before the lo pass so a window that opens and closes on the same
  // arrival ends up empty: lo == hi == j.)
  while (hi_cursor_ < up_ts_.size() &&
         packet.timestamp > up_ts_[hi_cursor_] + config_.max_delay) {
    // lo may not have been assigned yet (no packet reached t_i): empty.
    if (hi_cursor_ >= lo_cursor_) {
      // The window never opened — this arrival is already past it, so it
      // finalises empty (lo == hi == j).
      windows_[hi_cursor_].lo = j;
      lo_cursor_ = hi_cursor_ + 1;
    }
    windows_[hi_cursor_].hi = j;
    finalize_window(hi_cursor_);
    ++hi_cursor_;
    if (decided()) return;
  }

  // Windows this arrival opens (first packet at or after t_i).
  while (lo_cursor_ < up_ts_.size() &&
         up_ts_[lo_cursor_] <= packet.timestamp) {
    windows_[lo_cursor_].lo = j;
    ++lo_cursor_;
  }
}

void OnlineCorrelator::finish() {
  if (finished_) return;
  // Catch up on anything appended to a shared buffer since the last
  // ingest_appended() so the end-of-stream finalisation below sees every
  // packet (a no-op for standalone buffers and decided pairs).
  if (!decided()) ingest_appended();
  finished_ = true;
  const auto m = static_cast<std::uint32_t>(next_index_);
  while (hi_cursor_ < up_ts_.size()) {
    if (hi_cursor_ >= lo_cursor_) {
      windows_[hi_cursor_].lo = m;  // never opened: empty
      lo_cursor_ = hi_cursor_ + 1;
    }
    windows_[hi_cursor_].hi = m;
    finalize_window(hi_cursor_);
    ++hi_cursor_;
    if (early_rejected_) break;
  }
}

double OnlineCorrelator::finalized_fraction() const {
  if (up_ts_.empty()) return 1.0;
  return static_cast<double>(hi_cursor_) /
         static_cast<double>(up_ts_.size());
}

void OnlineCorrelator::finalize_window(std::uint32_t index) {
  if (!options_.early_exit) return;
  if (windows_[index].empty() &&
      requires_complete_matching(algorithm_)) {
    early_rejected_ = true;
    return;
  }
  const DecodePlan& plan = upstream_->plan();
  const std::uint32_t slot = plan.slot_of(index);
  if (slot != DecodePlan::kNoSlot) check_bit(plan.slot_bit()[slot]);
}

void OnlineCorrelator::check_bit(std::uint32_t bit) {
  const DecodePlan& plan = upstream_->plan();
  if (bit_checked_[bit]) return;
  const auto slots_of_bit = plan.bit_slots(bit);
  if (++final_slots_per_bit_[bit] < slots_of_bit.size()) return;
  bit_checked_[bit] = true;

  // Greedy bound over the (now final) windows: if even the per-pair
  // extremes cannot decode this bit as its target value, no selection ever
  // will.
  const auto slot_up = plan.slot_up();
  const auto prefer = plan.slot_prefer();
  DurationUs extreme = 0;
  bool any_pair = false;
  for (std::uint32_t pair = 0; pair < plan.pairs_per_bit(); ++pair) {
    const std::size_t p = std::size_t{bit} * plan.pairs_per_bit() + pair;
    const std::uint32_t first = plan.pair_first_slot()[p];
    const std::uint32_t second = plan.pair_second_slot()[p];
    const MatchWindow& wf = windows_[slot_up[first]];
    const MatchWindow& ws = windows_[slot_up[second]];
    if (wf.empty() || ws.empty()) continue;
    const TimeUs t_first =
        downstream_->timestamp(prefer[first] ? wf.lo : wf.hi - 1);
    const TimeUs t_second =
        downstream_->timestamp(prefer[second] ? ws.lo : ws.hi - 1);
    extreme += plan.pair_sign()[p] * (t_second - t_first);
    any_pair = true;
  }
  const bool matchable =
      any_pair && decode_bit(extreme) == plan.target_bits()[bit];
  if (!matchable) {
    ++doomed_bits_;
    if (doomed_bits_ > config_.hamming_threshold) {
      early_rejected_ = true;
    }
  }
}

CorrelationResult OnlineCorrelator::result() {
  require(decided(), "result() before the stream is decided");
  if (cached_result_) return *cached_result_;

  if (early_rejected_) {
    CorrelationResult result;
    result.algorithm = algorithm_;
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = doomed_bits_;
    result.cost = next_index_;  // one pass over the stream so far
    cached_result_ = result;
    return result;
  }

  const Flow downstream = downstream_->to_flow();
  const Correlator offline(config_, algorithm_);
  cached_result_ = offline.correlate(upstream_->watermarked(), downstream);
  return *cached_result_;
}

}  // namespace sscor
