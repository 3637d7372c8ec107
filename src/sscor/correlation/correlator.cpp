#include "sscor/correlation/correlator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "sscor/matching/batch_kernel.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/trace.hpp"

namespace sscor {
namespace {

/// The per-run distributional metrics: where a detect's packet accesses
/// actually land, plus the interruption tallies (heavy tails are invisible
/// in process-wide totals).
void record_run_metrics(const CorrelationResult& result) {
  static metrics::Histogram& pair_cost =
      metrics::histogram("correlate.pair_cost");
  pair_cost.record(result.cost);
  if (result.interrupted) {
    static metrics::Counter& interrupted =
        metrics::counter("correlate.interrupted");
    static metrics::Counter& cancelled =
        metrics::counter("correlate.cancelled");
    interrupted.add();
    if (result.stop_reason == StopReason::kCancelled) cancelled.add();
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

/// Flushes the per-run latency sample on scope exit — including exceptional
/// unwind (chaos-injected allocation failure, a throwing flow accessor), so
/// a decode that dies after 900ms still lands in the latency tail instead
/// of vanishing from the histogram.  Aborted runs are counted separately.
class LatencyFlusher {
 public:
  LatencyFlusher() noexcept
      : entry_exceptions_(std::uncaught_exceptions()),
        start_(std::chrono::steady_clock::now()) {}
  ~LatencyFlusher() noexcept {
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    static metrics::Histogram& latency =
        metrics::histogram("correlate.latency_us");
    latency.record(static_cast<std::uint64_t>(elapsed));
    if (std::uncaught_exceptions() > entry_exceptions_) {
      static metrics::Counter& aborted = metrics::counter("correlate.aborted");
      aborted.add();
    }
  }
  LatencyFlusher(const LatencyFlusher&) = delete;
  LatencyFlusher& operator=(const LatencyFlusher&) = delete;

 private:
  int entry_exceptions_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

CorrelationResult Correlator::correlate(const WatermarkedFlow& watermarked,
                                        const Flow& suspicious,
                                        const MatchContext* context) const {
  TRACE_SPAN("correlate");
  const LatencyFlusher latency_guard;
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
    // with its recorded cost, so the reported cost is unchanged.
    local.emplace(MatchContext::build(watermarked.flow, suspicious,
                                      config_.max_delay,
                                      config_.size_constraint));
    context = &*local;
  }
  batch::BatchDecoder decoder(config_);
  const CorrelationResult result = decoder.decode_one(
      algorithm_, *context,
      batch::DecodeHypothesis{&watermarked.schedule, &watermarked.watermark});

  // Latency flushes via latency_guard so aborted runs are measured too.
  record_run_metrics(result);
  if (trace::decode_enabled()) {
    record_decode_trace(to_string(result.algorithm), watermarked.watermark,
                        result, context->windows(), watermarked.flow.size(),
                        suspicious.size());
  }
  return result;
}

}  // namespace sscor
