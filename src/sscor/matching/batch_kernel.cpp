#include "sscor/matching/batch_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "sscor/matching/match_windows.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decoder.hpp"

namespace sscor::batch {

DecodeWorkspace& thread_workspace() {
  thread_local DecodeWorkspace workspace;
  return workspace;
}

namespace {

/// The Greedy port's "no downstream packet chosen" (scalar: nullopt).
constexpr std::uint32_t kNoChoice = 0xffffffffu;

/// Replays the reference decoders' matching phase from the context (the
/// cost-replay invariant): charges the recorded build cost, rejects an
/// incomplete build, charges the recorded prune cost, rejects a failed
/// prune.  Returns false on a reject, with the meter where the reference
/// stands when it rejects.
bool replay_matching(const MatchContext& ctx, CostMeter& cost) {
  cost.count(ctx.build_cost());
  if (!ctx.complete()) return false;
  cost.count(ctx.prune_cost());
  return ctx.prune_ok();
}

// ------------------------------------------------- Greedy+/Greedy* engine

/// The SoA mirror of SelectionState plus detail::run_shared_phases, with
/// the reference implementations' access counting replicated at every
/// observable point (probe polls, exhaustion checks, result assembly).
class SelectionRun {
 public:
  SelectionRun(const CorrelatorConfig& config, const MatchContext& ctx,
               const DecodePlan& plan, DecodeWorkspace& ws,
               Algorithm algorithm, std::uint64_t cost_bound)
      : config_(config),
        ctx_(ctx),
        plan_(plan),
        ws_(ws),
        algorithm_(algorithm),
        cost_(cost_bound),
        probe_(config.budget),
        down_ts_(ctx.downstream_ts()),
        n_(plan.slot_count()),
        bits_(plan.bit_count()),
        ppb_(plan.pairs_per_bit()) {}

  // --- phases 1-3 (port of detail::run_shared_phases) ---

  void shared_phases() {
    {
      TRACE_SPAN("correlate.match");
      if (!replay_matching(ctx_, cost_)) return rejected(false);
    }
    if (probe_.should_stop(cost_.accesses())) return interrupted_early();

    TRACE_SPAN("correlate.greedy");
    init_selection();
    if (probe_.should_stop(cost_.accesses())) return interrupted_early();
    ws_.never_match.assign(bits_, 0);
    std::uint32_t greedy_hamming = 0;
    for (std::uint32_t bit = 0; bit < bits_; ++bit) {
      if (!bit_matches(bit)) {
        ws_.never_match[bit] = 1;
        ++greedy_hamming;
      }
    }
    if (greedy_hamming > config_.hamming_threshold) {
      CorrelationResult result;
      result.algorithm = algorithm_;
      result.correlated = false;
      result.hamming = greedy_hamming;
      result.best_watermark = decode_watermark();
      result.cost = cost_.accesses();
      early_ = std::move(result);
      return;
    }

    TRACE_SPAN("correlate.repair");
    repair_order();
    if (probe_.should_stop(cost_.accesses())) return interrupted_early();
    if (hamming() <= config_.hamming_threshold) early_ = finish();
  }

  // --- phase 4 of Greedy+ ---

  void local_search() {
    TRACE_SPAN("correlate.local_search");
    compute_fixable();
    for (const std::uint32_t bit : ws_.fixable) {
      if (probe_.should_stop(cost_.accesses())) break;
      if (bit_matches(bit)) continue;  // flipped by an earlier cascade
      const auto slots = plan_.bit_slots(bit);
      for (std::size_t k = slots.size(); k-- > 0;) {
        const std::uint32_t slot = slots[k];
        // A slot still at its greedy choice cannot move closer to its
        // preference; continue with the previous embedding packet.
        if (ws_.positions[slot] == ws_.greedy_positions[slot]) continue;
        while (true) {
          if (probe_.should_stop(cost_.accesses())) break;
          const Move outcome = try_advance(slot, bit);
          if (outcome != Move::kCommitted) break;
          if (bit_matches(bit)) break;
        }
        if (probe_.stopped() || bit_matches(bit)) break;
      }
      if (hamming() <= config_.hamming_threshold) break;
    }
  }

  // --- Greedy*'s final-phase enumeration (port of StarEnumerator) ---

  void star_enumerate(std::uint32_t fixed_mismatches) {
    star_fixed_mismatches_ = fixed_mismatches;
    ws_.star_positions.assign(ws_.positions.begin(), ws_.positions.end());
    ws_.best_positions.assign(ws_.positions.begin(), ws_.positions.end());
    // All free bits are mismatched at phase-3; that is the score to beat.
    star_best_mismatches_ = static_cast<std::uint32_t>(ws_.free_bits.size());

    ws_.is_free.assign(n_, 0);
    for (const std::uint32_t slot : ws_.free_slots) ws_.is_free[slot] = 1;
    // For each free slot, the nearest fixed slot after it supplies an
    // exclusive upper bound on its candidates.
    ws_.upper_bound.assign(ws_.free_slots.size(),
                           std::numeric_limits<std::int64_t>::max());
    std::int64_t bound = std::numeric_limits<std::int64_t>::max();
    std::size_t fi = ws_.free_slots.size();
    for (std::uint32_t slot = n_; slot-- > 0;) {
      if (ws_.is_free[slot]) {
        check_invariant(fi > 0, "free slot bookkeeping out of sync");
        ws_.upper_bound[--fi] = bound;
      } else {
        bound = ws_.sel_down[slot];
      }
    }
    if (ws_.free_slots.empty()) return;
    star_dfs(0, star_lower_bound_before(ws_.free_slots[0]));
  }

  /// Adopts the enumeration's best positions (port of set_positions).
  void adopt_best_positions() {
    ws_.positions.assign(ws_.best_positions.begin(),
                         ws_.best_positions.end());
    for (std::uint32_t s = 0; s < n_; ++s) {
      ws_.sel_down[s] = ws_.cand_ptr[s][ws_.positions[s]];
    }
    recompute_all_bits();
  }

  // --- result assembly ---

  CorrelationResult finish() const {
    CorrelationResult result;
    result.algorithm = algorithm_;
    result.best_watermark = decode_watermark();
    result.hamming = hamming();
    result.correlated = result.hamming <= config_.hamming_threshold;
    result.cost = cost_.accesses();
    return result;
  }

  bool bit_matches(std::uint32_t bit) const {
    return decode_bit(ws_.bit_diffs[bit]) == plan_.target_bits()[bit];
  }

  std::uint32_t hamming() const {
    std::uint32_t distance = 0;
    for (std::uint32_t bit = 0; bit < bits_; ++bit) {
      distance += !bit_matches(bit);
    }
    return distance;
  }

  /// Free/fixable mismatched bits ordered by |D| ascending, into
  /// ws_.fixable (port of fixable_mismatches_by_abs_diff).
  void compute_fixable() {
    ws_.fixable.clear();
    for (std::uint32_t bit = 0; bit < bits_; ++bit) {
      if (!bit_matches(bit) && !ws_.never_match[bit]) {
        ws_.fixable.push_back(bit);
      }
    }
    std::sort(ws_.fixable.begin(), ws_.fixable.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return std::llabs(ws_.bit_diffs[a]) <
                       std::llabs(ws_.bit_diffs[b]);
              });
  }

  const CorrelatorConfig& config_;
  const MatchContext& ctx_;
  const DecodePlan& plan_;
  DecodeWorkspace& ws_;
  Algorithm algorithm_;
  CostMeter cost_;
  CancelProbe probe_;
  std::span<const TimeUs> down_ts_;
  std::uint32_t n_;
  std::uint32_t bits_;
  std::uint32_t ppb_;
  std::optional<CorrelationResult> early_;
  bool star_bound_hit_ = false;
  bool star_interrupted_ = false;

 private:
  enum class Move { kCommitted, kRejected, kInfeasible };

  void init_selection() {
    const CandidateSets& sets = ctx_.pruned_sets();
    const auto up = plan_.slot_up();
    ws_.cand_ptr.resize(n_);
    ws_.cand_len.resize(n_);
    ws_.positions.resize(n_);
    ws_.greedy_positions.resize(n_);
    ws_.sel_down.resize(n_);
    const auto prefer = plan_.slot_prefer();
    for (std::uint32_t s = 0; s < n_; ++s) {
      const auto set = sets.set(up[s]);
      check_invariant(!set.empty(), "pruned sets must be complete");
      ws_.cand_ptr[s] = set.data();
      ws_.cand_len[s] = static_cast<std::uint32_t>(set.size());
      const std::uint32_t pos = prefer[s] ? 0u : ws_.cand_len[s] - 1;
      ws_.positions[s] = pos;
      ws_.greedy_positions[s] = pos;
      ws_.sel_down[s] = ws_.cand_ptr[s][pos];
    }
    ws_.bit_diffs.resize(bits_);
    have_selection_ = true;
    recompute_all_bits();
  }

  /// One kernel sweep: gather selected timestamps, form signed pair
  /// differences, reduce per bit.  SelectionState counts two timestamp
  /// reads per pair; no observation point interleaves with the recompute,
  /// so the same total is charged in one bulk count.
  void recompute_all_bits() {
    ws_.slot_ts.resize(n_);
    ws_.pair_diff.resize(static_cast<std::size_t>(bits_) * ppb_);
    kernels::gather_timestamps(down_ts_.data(), ws_.sel_down.data(),
                               ws_.slot_ts.data(), n_);
    kernels::pair_diffs(ws_.slot_ts.data(), plan_.pair_first_slot().data(),
                        plan_.pair_second_slot().data(),
                        plan_.pair_sign().data(), ws_.pair_diff.data(),
                        static_cast<std::size_t>(bits_) * ppb_);
    kernels::reduce_bits(ws_.pair_diff.data(), bits_, ppb_,
                         ws_.bit_diffs.data());
    cost_.count(2ull * bits_ * ppb_);
  }

  /// Phase-3 repair (port of SelectionState::repair_order): walk backwards,
  /// re-pointing conflicting slots to the latest candidate below the
  /// successor's choice.  Each binary-search probe counts one access.
  void repair_order() {
    for (std::uint32_t s = n_; s-- > 1;) {
      const std::uint32_t prev = s - 1;
      const std::uint32_t bound = ws_.sel_down[s];
      if (ws_.sel_down[prev] < bound) continue;
      const std::uint32_t* set = ws_.cand_ptr[prev];
      std::uint32_t lo = 0;
      std::uint32_t hi = ws_.cand_len[prev];
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        cost_.count();
        if (set[mid] < bound) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      check_invariant(lo > 0, "pruning guarantees a conflict-free candidate");
      ws_.positions[prev] = lo - 1;
      ws_.sel_down[prev] = set[lo - 1];
    }
    recompute_all_bits();
  }

  /// Port of compute_bit_diff with the pending ws_.changes as overrides
  /// (two counted timestamp reads per pair, same as ts_at twice).
  DurationUs compute_bit_diff_with_changes(std::uint32_t bit) {
    auto index_of = [&](std::uint32_t slot) -> std::uint32_t {
      for (const auto& [s, pos] : ws_.changes) {
        if (s == slot) return ws_.cand_ptr[slot][pos];
      }
      return ws_.sel_down[slot];
    };
    DurationUs sum = 0;
    const std::uint32_t* first = plan_.pair_first_slot().data();
    const std::uint32_t* second = plan_.pair_second_slot().data();
    const std::int8_t* sign = plan_.pair_sign().data();
    for (std::uint32_t pair = 0; pair < ppb_; ++pair) {
      const std::size_t p = static_cast<std::size_t>(bit) * ppb_ + pair;
      cost_.count(2);
      const DurationUs ipd =
          down_ts_[index_of(second[p])] - down_ts_[index_of(first[p])];
      sum += static_cast<DurationUs>(sign[p]) * ipd;
    }
    return sum;
  }

  Move try_advance(std::uint32_t slot, std::uint32_t focus_bit) {
    if (ws_.positions[slot] + 1 >= ws_.cand_len[slot]) {
      return Move::kInfeasible;
    }

    // Build the hypothetical move: slot one step right, later slots
    // cascaded to the smallest candidates restoring strict order.
    auto& changes = ws_.changes;
    changes.clear();
    changes.emplace_back(slot, ws_.positions[slot] + 1);
    std::uint32_t prev_idx = ws_.cand_ptr[slot][ws_.positions[slot] + 1];
    for (std::uint32_t q = slot + 1; q < n_; ++q) {
      if (ws_.sel_down[q] > prev_idx) break;  // rest already strictly above
      const std::uint32_t* set = ws_.cand_ptr[q];
      std::uint32_t lo = 0;
      std::uint32_t hi = ws_.cand_len[q];
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        cost_.count();
        if (set[mid] <= prev_idx) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == ws_.cand_len[q]) return Move::kInfeasible;
      changes.emplace_back(q, lo);
      prev_idx = set[lo];
    }

    auto& affected = ws_.affected;
    affected.clear();
    const auto slot_bit = plan_.slot_bit();
    for (const auto& [s, pos] : changes) {
      (void)pos;
      const std::uint32_t bit = slot_bit[s];
      if (std::find(affected.begin(), affected.end(), bit) ==
          affected.end()) {
        affected.push_back(bit);
      }
    }

    // The focus bit must strictly improve toward its wanted sign and no
    // currently-matching bit may flip (rejecting before evaluating later
    // affected bits, exactly like the reference — the counts stop there).
    auto& new_diffs = ws_.new_diffs;
    new_diffs.assign(affected.size(), 0);
    bool focus_improved = false;
    for (std::size_t i = 0; i < affected.size(); ++i) {
      const std::uint32_t bit = affected[i];
      new_diffs[i] = compute_bit_diff_with_changes(bit);
      if (bit == focus_bit) {
        const bool want_one = plan_.target_bits()[bit] == 1;
        focus_improved = want_one ? new_diffs[i] > ws_.bit_diffs[bit]
                                  : new_diffs[i] < ws_.bit_diffs[bit];
      } else if (bit_matches(bit) &&
                 decode_bit(new_diffs[i]) != plan_.target_bits()[bit]) {
        return Move::kRejected;
      }
    }
    if (!focus_improved) return Move::kRejected;

    for (const auto& [s, pos] : changes) {
      ws_.positions[s] = pos;
      ws_.sel_down[s] = ws_.cand_ptr[s][pos];
    }
    for (std::size_t i = 0; i < affected.size(); ++i) {
      ws_.bit_diffs[affected[i]] = new_diffs[i];
    }
    return Move::kCommitted;
  }

  Watermark decode_watermark() const {
    std::vector<std::uint8_t> bits;
    bits.reserve(bits_);
    for (std::uint32_t bit = 0; bit < bits_; ++bit) {
      bits.push_back(decode_bit(ws_.bit_diffs[bit]));
    }
    return Watermark(std::move(bits));
  }

  void rejected(bool matching_complete) {
    CorrelationResult result;
    result.algorithm = algorithm_;
    result.correlated = false;
    result.matching_complete = matching_complete;
    result.hamming = bits_;
    result.cost = cost_.accesses();
    early_ = std::move(result);
  }

  void interrupted_early() {
    CorrelationResult result;
    result.algorithm = algorithm_;
    result.correlated = false;
    if (have_selection_) {
      result.best_watermark = decode_watermark();
      result.hamming = hamming();
      result.correlated = result.hamming <= config_.hamming_threshold;
    } else {
      result.hamming = bits_;
    }
    result.cost = cost_.accesses();
    result.interrupted = true;
    result.stop_reason = probe_.reason();
    early_ = std::move(result);
  }

  std::int64_t star_lower_bound_before(std::uint32_t slot) const {
    for (std::uint32_t s = slot; s-- > 0;) {
      if (!ws_.is_free[s]) return ws_.sel_down[s];
    }
    return -1;
  }

  TimeUs star_ts_of(std::uint32_t slot) {
    cost_.count();
    return down_ts_[ws_.cand_ptr[slot][ws_.star_positions[slot]]];
  }

  std::uint32_t star_evaluate() {
    std::uint32_t mismatches = 0;
    const std::uint32_t* first = plan_.pair_first_slot().data();
    const std::uint32_t* second = plan_.pair_second_slot().data();
    const std::int8_t* sign = plan_.pair_sign().data();
    for (const std::uint32_t bit : ws_.free_bits) {
      DurationUs sum = 0;
      for (std::uint32_t pair = 0; pair < ppb_; ++pair) {
        const std::size_t p = static_cast<std::size_t>(bit) * ppb_ + pair;
        const TimeUs second_ts = star_ts_of(second[p]);
        const TimeUs first_ts = star_ts_of(first[p]);
        sum += static_cast<DurationUs>(sign[p]) * (second_ts - first_ts);
      }
      mismatches += decode_bit(sum) != plan_.target_bits()[bit];
    }
    return mismatches;
  }

  void star_dfs(std::size_t fi, std::int64_t prev_value) {
    if (star_bound_hit_ || star_done_ || star_interrupted_) return;
    if (fi == ws_.free_slots.size()) {
      const std::uint32_t mismatches = star_evaluate();
      if (mismatches < star_best_mismatches_) {
        star_best_mismatches_ = mismatches;
        ws_.best_positions.assign(ws_.star_positions.begin(),
                                  ws_.star_positions.end());
        if (star_fixed_mismatches_ + star_best_mismatches_ <=
            config_.hamming_threshold) {
          star_done_ = true;  // paper: terminate at the threshold
        }
      }
      return;
    }
    const std::uint32_t slot = ws_.free_slots[fi];
    const std::uint32_t* set = ws_.cand_ptr[slot];
    const std::uint32_t len = ws_.cand_len[slot];
    for (std::uint32_t pos = 0; pos < len; ++pos) {
      cost_.count();
      if (cost_.exhausted()) {
        star_bound_hit_ = true;
        return;
      }
      if (probe_.should_stop(cost_.accesses())) {
        star_interrupted_ = true;
        return;
      }
      const std::int64_t value = set[pos];
      if (value <= prev_value) continue;
      if (value >= ws_.upper_bound[fi]) break;
      ws_.star_positions[slot] = pos;
      star_dfs(fi + 1, value);
      if (star_bound_hit_ || star_done_ || star_interrupted_) return;
    }
    ws_.star_positions[slot] = ws_.positions[slot];  // restore for ts_of
  }

  bool have_selection_ = false;
  std::uint32_t star_best_mismatches_ = 0;
  std::uint32_t star_fixed_mismatches_ = 0;
  bool star_done_ = false;
};

CorrelationResult run_greedy_plus_batch(const CorrelatorConfig& config,
                                        const MatchContext& ctx,
                                        const DecodePlan& plan,
                                        DecodeWorkspace& ws) {
  SelectionRun run(config, ctx, plan, ws, Algorithm::kGreedyPlus,
                   std::numeric_limits<std::uint64_t>::max());
  run.shared_phases();
  if (run.early_) return *std::move(run.early_);
  run.local_search();
  CorrelationResult result = run.finish();
  result.interrupted = run.probe_.stopped();
  result.stop_reason = run.probe_.reason();
  return result;
}

CorrelationResult run_greedy_star_batch(const CorrelatorConfig& config,
                                        const MatchContext& ctx,
                                        const DecodePlan& plan,
                                        DecodeWorkspace& ws) {
  SelectionRun run(config, ctx, plan, ws, Algorithm::kGreedyStar,
                   config.cost_bound);
  run.shared_phases();
  if (run.early_) {
    run.early_->cost_bound_hit = run.cost_.exhausted();
    return *std::move(run.early_);
  }

  // The final phase enumerates the packets of the still-fixable mismatched
  // bits; everything else stays at its phase-3 selection.
  run.compute_fixable();
  ws.free_bits.assign(ws.fixable.begin(), ws.fixable.end());
  if (ws.free_bits.empty()) return run.finish();
  ws.free_slots.clear();
  for (const std::uint32_t bit : ws.free_bits) {
    const auto slots = plan.bit_slots(bit);
    ws.free_slots.insert(ws.free_slots.end(), slots.begin(), slots.end());
  }
  std::sort(ws.free_slots.begin(), ws.free_slots.end());

  std::uint32_t fixed_mismatches = 0;
  for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
    if (!run.bit_matches(bit) &&
        std::find(ws.free_bits.begin(), ws.free_bits.end(), bit) ==
            ws.free_bits.end()) {
      ++fixed_mismatches;
    }
  }
  {
    TRACE_SPAN("correlate.star_enum");
    run.star_enumerate(fixed_mismatches);
  }
  run.adopt_best_positions();

  CorrelationResult result = run.finish();
  result.cost_bound_hit = run.star_bound_hit_ || run.cost_.exhausted();
  result.interrupted = run.star_interrupted_ || run.probe_.stopped();
  result.stop_reason = run.probe_.reason();
  return result;
}

// ------------------------------------------------------------ Brute force

/// Port of run_brute_force with its default options: the enumeration runs
/// over the pruned sets and certifies the exact optimum (no stop at the
/// Hamming threshold).
struct BruteForceRun {
  const DecodePlan& plan;
  DecodeWorkspace& ws;
  std::span<const TimeUs> down_ts;
  CostMeter& cost;
  CancelProbe& probe;
  std::size_t n_up = 0;
  std::uint32_t best_hamming = std::numeric_limits<std::uint32_t>::max();
  Watermark best_watermark{};
  bool bound_hit = false;
  bool interrupted = false;

  void dfs(std::size_t i, std::int64_t prev) {
    if (bound_hit || interrupted) return;
    if (i == n_up) {
      evaluate_leaf();
      return;
    }
    const std::uint32_t* set = ws.up_cand_ptr[i];
    const std::uint32_t len = ws.up_cand_len[i];
    const std::uint32_t slot = plan.slot_of(i);
    for (std::uint32_t k = 0; k < len; ++k) {
      cost.count();
      if (cost.exhausted()) {
        bound_hit = true;
        return;
      }
      if (probe.should_stop(cost.accesses())) {
        interrupted = true;
        return;
      }
      const std::uint32_t candidate = set[k];
      if (static_cast<std::int64_t>(candidate) <= prev) continue;
      if (slot != DecodePlan::kNoSlot) ws.slot_down_index[slot] = candidate;
      dfs(i + 1, candidate);
      if (bound_hit || interrupted) return;
    }
  }

  void evaluate_leaf() {
    std::uint32_t hamming = 0;
    const std::uint32_t* first = plan.pair_first_slot().data();
    const std::uint32_t* second = plan.pair_second_slot().data();
    const std::int8_t* sign = plan.pair_sign().data();
    const std::uint32_t ppb = plan.pairs_per_bit();
    for (std::uint32_t bit = 0; bit < plan.bit_count(); ++bit) {
      DurationUs sum = 0;
      for (std::uint32_t pair = 0; pair < ppb; ++pair) {
        const std::size_t p = static_cast<std::size_t>(bit) * ppb + pair;
        cost.count(2);
        const DurationUs ipd = down_ts[ws.slot_down_index[second[p]]] -
                               down_ts[ws.slot_down_index[first[p]]];
        sum += static_cast<DurationUs>(sign[p]) * ipd;
      }
      ws.leaf_bits[bit] = decode_bit(sum);
      hamming += ws.leaf_bits[bit] != plan.target_bits()[bit];
    }
    if (hamming < best_hamming) {
      best_hamming = hamming;
      best_watermark = Watermark(ws.leaf_bits);
    }
  }
};

CorrelationResult run_brute_force_batch(const CorrelatorConfig& config,
                                        const MatchContext& ctx,
                                        const DecodePlan& plan,
                                        DecodeWorkspace& ws) {
  CostMeter cost(config.cost_bound);
  CancelProbe probe(config.budget);
  CorrelationResult result;
  result.algorithm = Algorithm::kBruteForce;

  auto rejected = [&] {
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = plan.bit_count();
    result.cost = cost.accesses();
    return result;
  };

  TRACE_SPAN("correlate.brute_force");
  if (!replay_matching(ctx, cost)) return rejected();
  const CandidateSets& sets = ctx.pruned_sets();

  const std::size_t n_up = sets.upstream_size();
  ws.up_cand_ptr.resize(n_up);
  ws.up_cand_len.resize(n_up);
  for (std::size_t i = 0; i < n_up; ++i) {
    const auto set = sets.set(i);
    ws.up_cand_ptr[i] = set.data();
    ws.up_cand_len[i] = static_cast<std::uint32_t>(set.size());
  }
  ws.slot_down_index.assign(plan.slot_count(), 0);
  ws.leaf_bits.resize(plan.bit_count());

  BruteForceRun search{plan, ws, ctx.downstream_ts(), cost, probe};
  search.n_up = n_up;
  {
    TRACE_SPAN("correlate.bf_enum");
    search.dfs(0, -1);
  }

  result.cost_bound_hit = search.bound_hit;
  result.interrupted = search.interrupted;
  result.stop_reason = probe.reason();
  result.cost = cost.accesses();
  if (search.best_hamming == std::numeric_limits<std::uint32_t>::max()) {
    // The cost bound or the budget stopped the enumeration before its
    // first complete assignment; reported like incomplete matching.
    result.correlated = false;
    result.matching_complete = false;
    result.hamming = plan.bit_count();
    return result;
  }
  result.best_watermark = std::move(search.best_watermark);
  result.hamming = search.best_hamming;
  result.correlated = result.hamming <= config.hamming_threshold;
  return result;
}

// ----------------------------------------------------------------- Greedy

CorrelationResult run_greedy_batch(const CorrelatorConfig& config,
                                   const MatchContext& ctx,
                                   const DecodePlan& plan,
                                   DecodeWorkspace& ws) {
  TRACE_SPAN("correlate.greedy");
  CostMeter cost;
  CancelProbe probe(config.budget);
  const std::span<const TimeUs> down_ts = ctx.downstream_ts();
  const std::uint32_t n = plan.slot_count();
  const auto slot_up = plan.slot_up();
  const auto prefer = plan.slot_prefer();
  const auto up_q = ctx.upstream_quantized_sizes();
  const auto down_q = ctx.downstream_quantized_sizes();
  const auto windows = ctx.windows();
  const auto m = static_cast<std::uint32_t>(down_ts.size());

  // Locate each relevant packet's preferred candidate.  The window comes
  // from the context's scan, which finds exactly the bounds the reference's
  // two binary searches do; the charge is those searches' probe count, a
  // closed form of the two bounds.  The context's pre-quantized size tables
  // replace the per-examination quantization (each examined candidate
  // still counts one access).
  ws.choice.assign(n, kNoChoice);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (probe.should_stop(cost.accesses())) break;
    const MatchWindow window = windows[slot_up[s]];
    cost.count(lower_bound_probes(m, window.lo) +
               lower_bound_probes(m, window.hi));
    if (window.empty()) continue;
    if (!config.size_constraint) {
      ws.choice[s] = prefer[s] ? window.lo : window.hi - 1;
      continue;
    }
    const std::uint32_t quantized_up = up_q[slot_up[s]];
    if (prefer[s]) {
      for (std::uint32_t j = window.lo; j < window.hi; ++j) {
        cost.count();
        if (down_q[j] == quantized_up) {
          ws.choice[s] = j;
          break;
        }
      }
    } else {
      for (std::uint32_t j = window.hi; j-- > window.lo;) {
        cost.count();
        if (down_q[j] == quantized_up) {
          ws.choice[s] = j;
          break;
        }
      }
    }
  }

  // Decode each bit from whatever pairs are formable; a bit with no
  // formable pair cannot be steered and decodes as a mismatch.
  const std::uint32_t bits = plan.bit_count();
  const std::uint32_t ppb = plan.pairs_per_bit();
  const std::uint32_t* first = plan.pair_first_slot().data();
  const std::uint32_t* second = plan.pair_second_slot().data();
  const std::int8_t* sign = plan.pair_sign().data();
  const auto target = plan.target_bits();
  ws.bits8.resize(bits);
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    DurationUs sum = 0;
    bool any_pair = false;
    for (std::uint32_t pair = 0; pair < ppb; ++pair) {
      const std::size_t p = static_cast<std::size_t>(bit) * ppb + pair;
      if (ws.choice[first[p]] == kNoChoice ||
          ws.choice[second[p]] == kNoChoice) {
        continue;
      }
      cost.count(2);
      const DurationUs ipd =
          down_ts[ws.choice[second[p]]] - down_ts[ws.choice[first[p]]];
      sum += static_cast<DurationUs>(sign[p]) * ipd;
      any_pair = true;
    }
    ws.bits8[bit] = any_pair ? decode_bit(sum)
                             : static_cast<std::uint8_t>(1 - target[bit]);
  }

  CorrelationResult result;
  result.algorithm = Algorithm::kGreedy;
  result.best_watermark = Watermark(ws.bits8);
  std::uint32_t hamming = 0;
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    hamming += ws.bits8[bit] != target[bit];
  }
  result.hamming = hamming;
  result.correlated = result.hamming <= config.hamming_threshold;
  result.cost = cost.accesses();
  result.interrupted = probe.stopped();
  result.stop_reason = probe.reason();
  return result;
}

}  // namespace

// ----------------------------------------------------------- BatchDecoder

BatchDecoder::BatchDecoder(const CorrelatorConfig& config,
                           DecodeWorkspace* workspace)
    : config_(config),
      ws_(workspace != nullptr ? workspace : &thread_workspace()) {
  require(config.max_delay >= 0, "max delay must be non-negative");
  require(config.cost_bound > 0, "cost bound must be positive");
}

CorrelationResult BatchDecoder::decode_one(Algorithm algorithm,
                                           const MatchContext& context,
                                           const DecodePlan& plan) {
  require(context.key() ==
              MatchContextKey{config_.max_delay, config_.size_constraint},
          "MatchContext was built for a different pair or key");
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return run_brute_force_batch(config_, context, plan, *ws_);
    case Algorithm::kGreedy:
      return run_greedy_batch(config_, context, plan, *ws_);
    case Algorithm::kGreedyPlus:
      return run_greedy_plus_batch(config_, context, plan, *ws_);
    case Algorithm::kGreedyStar:
      return run_greedy_star_batch(config_, context, plan, *ws_);
  }
  throw InternalError("unhandled algorithm");
}

}  // namespace sscor::batch
