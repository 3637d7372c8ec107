#include "sscor/correlation/resilient.hpp"

#include <array>
#include <optional>

#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"

namespace sscor {
namespace {

/// Cost order of the tiers, most expensive first.
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

}  // namespace

std::vector<Algorithm> fallback_ladder(Algorithm preferred) {
  std::vector<Algorithm> ladder;
  bool found = false;
  for (const Algorithm tier : kTierOrder) {
    if (tier == preferred) found = true;
    if (found) ladder.push_back(tier);
  }
  check_invariant(found, "unknown algorithm in fallback_ladder");
  return ladder;
}

ResilientCorrelator::ResilientCorrelator(CorrelatorConfig config,
                                         Algorithm preferred,
                                         ResilientOptions options)
    : config_(config), options_(options), ladder_(fallback_ladder(preferred)) {
  require(config.budget.token == nullptr && !config.budget.deadline.armed() &&
              config.budget.max_cost == 0,
          "pass the budget via ResilientOptions, not CorrelatorConfig");
}

CorrelationResult ResilientCorrelator::correlate(
    const WatermarkedFlow& watermarked, const Flow& suspicious,
    const MatchContext* context) const {
  TRACE_SPAN("correlate.resilient");
  // One clock for the whole ladder: a tier that burns the deadline leaves
  // nothing for the next, which then trips immediately and cascades to the
  // final (uncapped) tier.
  const Deadline deadline = options_.deadline_us > 0
                                ? Deadline::after(options_.deadline_us)
                                : Deadline{};
  // The tiers differ only in budget, so they share one context key: build
  // the pair's matching phase once and let every tier decode from it.
  std::optional<MatchContext> local;
  if (context == nullptr) {
    local.emplace(MatchContext::build(watermarked.flow, suspicious,
                                      config_.max_delay,
                                      config_.size_constraint));
    context = &*local;
  }

  std::size_t depth = 0;
  for (std::size_t t = 0; t < ladder_.size(); ++t) {
    const bool final_tier = t + 1 == ladder_.size();
    CorrelatorConfig attempt_config = config_;
    attempt_config.budget.token = options_.token;
    if (!final_tier) {
      attempt_config.budget.deadline = deadline;
      attempt_config.budget.max_cost = options_.max_cost_per_attempt;
    }
    // The final tier keeps only the explicit cancel: deadline and cost caps
    // are lifted so the ladder always ends with a usable decision.

    const Correlator correlator(attempt_config, ladder_[t]);
    CorrelationResult result =
        correlator.correlate(watermarked, suspicious, context);

    const bool cancelled =
        result.interrupted && result.stop_reason == StopReason::kCancelled;
    if (!result.interrupted || cancelled || final_tier) {
      result.degraded = depth > 0;
      static metrics::Counter& degraded_runs =
          metrics::counter("resilient.degraded");
      static metrics::Histogram& fallback_depth =
          metrics::histogram("resilient.fallback_depth");
      static const TierCounters tier("tier");
      if (result.degraded) degraded_runs.add();
      fallback_depth.record(depth);
      tier[result.algorithm].add();
      return result;
    }

    ++depth;
    static const TierCounters fallback_from("fallback_from");
    fallback_from[ladder_[t]].add();
  }
  throw InternalError("fallback ladder exhausted without a result");
}

}  // namespace sscor
