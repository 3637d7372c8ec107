#include "sscor/correlation/correlator.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "sscor/matching/batch_kernel.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"
#include "sscor/watermark/decode_plan.hpp"

namespace sscor {
namespace {

/// The per-run distributional metrics: where a detect's packet accesses
/// actually land, plus the interruption tally (heavy tails are invisible
/// in process-wide totals).
void record_run_metrics(const CorrelationResult& result) {
  static metrics::Histogram& pair_cost =
      metrics::histogram("correlate.pair_cost");
  pair_cost.record(result.cost);
  if (result.interrupted) {
    static metrics::Counter& interrupted =
        metrics::counter("correlate.interrupted");
    interrupted.add();
  }
}

}  // namespace

void record_decode_trace(std::string algorithm, const Watermark& target,
                         const CorrelationResult& result,
                         std::span<const MatchWindow> windows,
                         std::size_t upstream_packets,
                         std::size_t downstream_packets) {
  trace::DecodeRecord record;
  record.algorithm = std::move(algorithm);
  record.correlated = result.correlated;
  record.hamming = result.hamming;
  record.cost = result.cost;
  record.matching_complete = result.matching_complete;
  record.cost_bound_hit = result.cost_bound_hit;

  if (result.best_watermark.size() == target.size()) {
    record.bit_outcomes.reserve(target.size());
    for (std::size_t bit = 0; bit < target.size(); ++bit) {
      record.bit_outcomes +=
          result.best_watermark.bit(bit) == target.bit(bit) ? '1' : '0';
    }
  } else {
    record.bit_outcomes.assign(target.size(), '-');
  }

  record.upstream_packets = upstream_packets;
  record.downstream_packets = downstream_packets;
  record.excess_packets = static_cast<std::int64_t>(downstream_packets) -
                          static_cast<std::int64_t>(upstream_packets);

  for (const MatchWindow& window : windows) {
    const std::uint64_t width = window.size();
    record.matched_upstream += width > 0;
    record.window_total += width;
    record.window_max = std::max(record.window_max, width);
  }
  trace::record_decode(std::move(record));
}

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "BruteForce";
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kGreedyPlus:
      return "Greedy+";
    case Algorithm::kGreedyStar:
      return "Greedy*";
  }
  return "unknown";
}

Correlator::Correlator(CorrelatorConfig config, Algorithm algorithm)
    : config_(config), algorithm_(algorithm) {
  require(config.max_delay >= 0, "max delay must be non-negative");
  require(config.cost_bound > 0, "cost bound must be positive");
}

namespace {

/// Cost order of the ladder's tiers, most expensive first.
constexpr std::array<Algorithm, 4> kTierOrder = {
    Algorithm::kBruteForce,
    Algorithm::kGreedyStar,
    Algorithm::kGreedyPlus,
    Algorithm::kGreedy,
};

/// A tier's name in metric names.  to_string() would not do: "Greedy+"
/// and "Greedy*" both read "Greedy_" as Prometheus names, which would
/// render two families under one name.
const char* tier_metric_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return "brute_force";
    case Algorithm::kGreedy:
      return "greedy";
    case Algorithm::kGreedyPlus:
      return "greedy_plus";
    case Algorithm::kGreedyStar:
      return "greedy_star";
  }
  return "unknown";
}

/// Per-algorithm counters "resilient.<what>.<tier>", looked up once.
struct TierCounters {
  explicit TierCounters(const std::string& what) {
    for (const Algorithm algorithm : kTierOrder) {
      by_algorithm[static_cast<int>(algorithm)] = &metrics::counter(
          "resilient." + what + "." + tier_metric_name(algorithm));
    }
  }
  metrics::Counter& operator[](Algorithm algorithm) const {
    return *by_algorithm[static_cast<int>(algorithm)];
  }
  metrics::Counter* by_algorithm[kTierOrder.size()] = {};
};

/// One decode attempt of one tier: a latency sample with its `correlate`
/// span, the per-run metrics and (when enabled) one decode-trace record.
/// An attempt that dies by exception (chaos-injected allocation failure, a
/// throwing flow accessor) still lands in the latency tail, and is counted
/// as aborted.
CorrelationResult decode_attempt(const CorrelatorConfig& config,
                                 Algorithm algorithm,
                                 const WatermarkedFlow& watermarked,
                                 const Flow& suspicious,
                                 const MatchContext& context,
                                 const DecodePlan& plan) {
  // Both handles are bound before the decode, so the abort path, which
  // may run out of memory, allocates nothing.
  static metrics::Histogram& latency =
      metrics::histogram("correlate.latency_us");
  static metrics::Counter& aborted = metrics::counter("correlate.aborted");
  const metrics::ScopedTimer timer(latency, "correlate");
  try {
    batch::BatchDecoder decoder(config);
    // Not const, so the return moves the result out of the try block
    // instead of copying it.
    CorrelationResult result = decoder.decode_one(algorithm, context, plan);
    record_run_metrics(result);
    if (trace::decode_enabled()) {
      record_decode_trace(to_string(result.algorithm), watermarked.watermark,
                          result, context.windows(), watermarked.flow.size(),
                          suspicious.size());
    }
    return result;
  } catch (...) {
    aborted.add();
    throw;
  }
}

}  // namespace

std::span<const Algorithm> fallback_ladder(Algorithm preferred) {
  const auto* tier = std::find(kTierOrder.begin(), kTierOrder.end(), preferred);
  check_invariant(tier != kTierOrder.end(),
                  "unknown algorithm in fallback_ladder");
  return {tier, kTierOrder.end()};
}

CorrelationResult Correlator::correlate(const WatermarkedFlow& watermarked,
                                        const Flow& suspicious,
                                        const MatchContext* context) const {
  if (context != nullptr) {
    // Drop a context built for another pair or key rather than throwing:
    // the caller may hold one context while scanning many suspects.
    static metrics::Counter& hits = metrics::counter("match_context.hits");
    static metrics::Counter& misses = metrics::counter("match_context.misses");
    if (context->matches(watermarked.flow, suspicious, config_.max_delay,
                         config_.size_constraint)) {
      hits.add();
    } else {
      misses.add();
      context = nullptr;
    }
  }
  std::optional<MatchContext> local;
  if (context == nullptr) {
    // The cold path: the same matching phase a scalar run performs, kept
    // with its recorded cost, so the reported cost is unchanged.  The
    // tiers differ only in budget, so they all decode from it.
    local.emplace(MatchContext::build(watermarked.flow, suspicious,
                                      config_.max_delay,
                                      config_.size_constraint));
    context = &*local;
  }

  // One plan serves every tier.  It lives in per-thread storage that each
  // call rebuilds in place, so a warm call allocates only its result.
  thread_local DecodePlan plan;
  plan.build(watermarked.schedule, watermarked.watermark);

  // With no budget nothing can interrupt a decode: the ladder is the
  // configured algorithm alone.
  const std::span<const Algorithm> ladder =
      config_.budget.enabled() ? fallback_ladder(algorithm_)
                               : fallback_ladder(algorithm_).first(1);
  for (std::size_t depth = 0;; ++depth) {
    const bool last = depth + 1 == ladder.size();
    CorrelatorConfig attempt = config_;
    // The last tier decodes with no budget, so the ladder always ends with
    // a decision.
    if (last) attempt.budget = DecodeBudget{};
    CorrelationResult result = decode_attempt(attempt, ladder[depth],
                                              watermarked, suspicious,
                                              *context, plan);
    if (last || !result.interrupted) {
      static metrics::Counter& degraded_runs =
          metrics::counter("resilient.degraded");
      static metrics::Histogram& fallback_depth =
          metrics::histogram("resilient.fallback_depth");
      static const TierCounters tier("tier");
      result.degraded = depth > 0;
      if (result.degraded) degraded_runs.add();
      fallback_depth.record(depth);
      tier[result.algorithm].add();
      return result;
    }
    static const TierCounters fallback_from("fallback_from");
    fallback_from[ladder[depth]].add();
  }
}

}  // namespace sscor
