#include "sscor/experiment/evaluation.hpp"

#include <cinttypes>
#include <cstdio>

#include "sscor/baselines/basic_watermark.hpp"
#include "sscor/baselines/zhang_passive.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parallel.hpp"
#include "sscor/util/trace.hpp"

namespace sscor::experiment {
namespace {

/// Decode-trace pair label: unique per (sweep point, pair kind, indices) so
/// the per-pair sort of the JSONL export is a total order and the exported
/// file is byte-identical across thread schedules.
std::string pair_label(const EvaluationRequest& request, const char* kind,
                       std::size_t i, std::size_t j) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "d=%" PRId64 ",c=%.3f,%s,i=%04zu,j=%04zu",
                request.max_delay, request.chaff_rate, kind, i, j);
  return buf;
}

/// Per-pair cache of MatchContexts, one per distinct key among the swept
/// detectors (in the paper sweep all correlator detectors share one key, so
/// this holds at most one entry).  Returns a reference valid until the next
/// insertion.
const MatchContext& context_for(
    std::vector<std::pair<MatchContextKey, MatchContext>>& cache,
    const Flow& upstream, const Flow& downstream, const MatchContextKey& key) {
  for (const auto& [k, ctx] : cache) {
    if (k == key) return ctx;
  }
  static sscor::metrics::Counter& builds =
      sscor::metrics::counter("match_context.builds");
  builds.add();
  cache.emplace_back(key, MatchContext::build(upstream, downstream,
                                              key.max_delay, key.size));
  return cache.back().second;
}

}  // namespace

std::vector<std::unique_ptr<Detector>> paper_detectors(
    const ExperimentConfig& config, DurationUs max_delay) {
  CorrelatorConfig cc;
  cc.max_delay = max_delay;
  cc.hamming_threshold = config.hamming_threshold;
  cc.cost_bound = config.cost_bound;

  ZhangPassiveParams zp;
  zp.deviation_threshold = config.zhang_threshold;
  zp.max_delay = max_delay;

  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.push_back(
      std::make_unique<CorrelatorDetector>(cc, Algorithm::kGreedy));
  detectors.push_back(
      std::make_unique<CorrelatorDetector>(cc, Algorithm::kGreedyPlus));
  detectors.push_back(
      std::make_unique<CorrelatorDetector>(cc, Algorithm::kGreedyStar));
  detectors.push_back(
      std::make_unique<BasicWatermarkDetector>(config.hamming_threshold));
  detectors.push_back(std::make_unique<ZhangPassiveDetector>(zp));
  return detectors;
}

std::vector<DetectorMetrics> evaluate_point(
    const Dataset& dataset,
    const std::vector<std::unique_ptr<Detector>>& detectors,
    const EvaluationRequest& request) {
  const unsigned threads = dataset.config().threads;
  const sscor::metrics::ScopedTimer point_timer("eval.point");

  // Downstream flows are shared by every detector; generate them in
  // parallel (each is an independent function of the seed).
  std::vector<Flow> downstream(dataset.size());
  {
    const sscor::metrics::ScopedTimer timer("eval.downstream_gen");
    parallel_for(
        dataset.size(),
        [&](std::size_t i) {
          TRACE_SPAN("eval.downstream_gen.flow");
          downstream[i] =
              dataset.downstream(i, request.max_delay, request.chaff_rate);
        },
        threads);
  }

  std::vector<DetectorMetrics> metrics(detectors.size());
  for (std::size_t d = 0; d < detectors.size(); ++d) {
    metrics[d].detector = detectors[d]->name();
  }

  // Runs every detector on each (upstream i, downstream j) pair and folds
  // the outcomes into each detector's `rate` (the fraction called
  // correlated) and `cost` statistic; `kind` labels the decode-trace
  // records.  Pair-outer / detector-inner: the watermark-independent
  // matching phase is computed once per pair and shared by every detector
  // with the same key, so at most one MatchContext is alive per worker.
  const auto run_pairs =
      [&](const char* kind,
          const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
          double DetectorMetrics::*rate, RunningStats DetectorMetrics::*cost) {
        std::vector<std::vector<DetectionOutcome>> outcomes(
            detectors.size(), std::vector<DetectionOutcome>(pairs.size()));
        parallel_for(
            pairs.size(),
            [&](std::size_t k) {
              TRACE_SPAN("eval.pair");
              const auto& [i, j] = pairs[k];
              const trace::DecodePairScope pair_scope(
                  trace::decode_enabled() ? pair_label(request, kind, i, j)
                                          : std::string());
              const WatermarkedFlow& up = dataset.upstream(i);
              const Flow& down = downstream[j];
              std::vector<std::pair<MatchContextKey, MatchContext>> contexts;
              for (std::size_t d = 0; d < detectors.size(); ++d) {
                const auto key = detectors[d]->shared_match_key();
                const MatchContext* context =
                    key ? &context_for(contexts, up.flow, down, *key)
                        : nullptr;
                outcomes[d][k] =
                    detectors[d]->detect_with_context(up, down, context);
              }
            },
            threads);
        // Reduce sequentially so the statistics are schedule-independent.
        for (std::size_t d = 0; d < detectors.size(); ++d) {
          std::size_t correlated = 0;
          std::uint64_t packets_accessed = 0;
          for (const auto& outcome : outcomes[d]) {
            correlated += outcome.correlated;
            packets_accessed += outcome.cost;
            (metrics[d].*cost).add(static_cast<double>(outcome.cost));
          }
          metrics[d].*rate = static_cast<double>(correlated) /
                             static_cast<double>(pairs.size());
          sscor::metrics::counter("eval.detections_run").add(pairs.size());
          sscor::metrics::counter("eval.packets_accessed")
              .add(packets_accessed);
        }
      };

  if (request.run_detection) {
    const sscor::metrics::ScopedTimer timer("eval.detection");
    std::vector<std::pair<std::size_t, std::size_t>> pairs(dataset.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i] = {i, i};
    run_pairs("det", pairs, &DetectorMetrics::detection_rate,
              &DetectorMetrics::cost_correlated);
  }
  if (request.run_false_positive) {
    const sscor::metrics::ScopedTimer timer("eval.false_positive");
    run_pairs("fp", dataset.sample_fp_pairs(dataset.config().fp_pairs),
              &DetectorMetrics::false_positive_rate,
              &DetectorMetrics::cost_uncorrelated);
  }
  return metrics;
}

}  // namespace sscor::experiment
