// A uniform detector interface so the experiment harness can sweep our four
// algorithms and the baseline schemes through the same code path.
//
// Every detector answers: "is `suspicious` a downstream flow of the
// (watermarked) upstream flow?" and reports the paper's cost metric.
// Passive baselines ignore the watermark fields and look only at the
// upstream flow's timing.

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "sscor/correlation/correlator.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

struct DetectionOutcome {
  bool correlated = false;
  std::uint64_t cost = 0;
  /// Optional continuous statistic behind the decision, oriented so that
  /// *smaller means more likely correlated* (Hamming distance for the
  /// watermark schemes, deviation seconds for Zhang, count deficit for
  /// Blum).  Lets the ROC bench sweep the decision threshold without
  /// re-running the detector.
  std::optional<double> score;
};

class Detector {
 public:
  virtual ~Detector() = default;
  virtual DetectionOutcome detect(const WatermarkedFlow& watermarked,
                                  const Flow& suspicious) const = 0;
  virtual std::string name() const = 0;

  /// The MatchContextKey this detector's matching phase would use, or
  /// nullopt when the detector cannot profit from a shared MatchContext
  /// (the passive baselines).  Detectors of the same key within one
  /// harness sweep can share a single context per flow pair.
  virtual std::optional<MatchContextKey> shared_match_key() const {
    return std::nullopt;
  }

  /// detect(), consuming an optional precomputed MatchContext for the
  /// pair.  The default ignores the context — only detectors that report a
  /// shared_match_key() do better.
  virtual DetectionOutcome detect_with_context(
      const WatermarkedFlow& watermarked, const Flow& suspicious,
      const MatchContext* /*context*/) const {
    return detect(watermarked, suspicious);
  }
};

/// Adapts a Correlator (BruteForce/Greedy/Greedy+/Greedy*) to Detector.
class CorrelatorDetector final : public Detector {
 public:
  CorrelatorDetector(CorrelatorConfig config, Algorithm algorithm)
      : correlator_(config, algorithm) {}

  DetectionOutcome detect(const WatermarkedFlow& watermarked,
                          const Flow& suspicious) const override {
    return detect_with_context(watermarked, suspicious, nullptr);
  }

  DetectionOutcome detect_with_context(
      const WatermarkedFlow& watermarked, const Flow& suspicious,
      const MatchContext* context) const override {
    const CorrelationResult r =
        correlator_.correlate(watermarked, suspicious, context);
    DetectionOutcome outcome{r.correlated, r.cost, std::nullopt};
    // Rejections before decoding carry no meaningful distance; report the
    // worst score so threshold sweeps treat them as maximally unlikely.
    outcome.score = r.matching_complete
                        ? static_cast<double>(r.hamming)
                        : static_cast<double>(watermarked.watermark.size());
    return outcome;
  }

  std::optional<MatchContextKey> shared_match_key() const override {
    // Every correlator decodes from the pair's context, Greedy included:
    // it reads its windows from the scan and is charged the probes of its
    // reference binary searches, so its cost is the same either way.
    return MatchContextKey{correlator_.config().max_delay,
                           correlator_.config().size_constraint};
  }

  std::string name() const override {
    return to_string(correlator_.algorithm());
  }

 private:
  Correlator correlator_;
};

}  // namespace sscor
