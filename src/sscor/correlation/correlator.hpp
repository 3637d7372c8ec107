// The public entry point of the correlation engine.
//
// Typical use (see examples/quickstart.cpp):
//
//   Embedder embedder(WatermarkParams{}, secret_key);
//   WatermarkedFlow wm = embedder.embed(upstream_flow, watermark);
//   ... the flow traverses stepping stones, is perturbed and chaffed ...
//   Correlator correlator(config, Algorithm::kGreedyPlus);
//   CorrelationResult r = correlator.correlate(wm, suspicious_flow);
//   if (r.correlated) { /* suspicious_flow is downstream of upstream_flow */ }

#pragma once

#include <span>
#include <string>

#include "sscor/correlation/result.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/watermark/embedder.hpp"

namespace sscor {

class Correlator {
 public:
  Correlator(CorrelatorConfig config, Algorithm algorithm);

  /// Decides whether `suspicious` is a downstream flow of the watermarked
  /// flow, by decoding the best watermark achievable over matching-packet
  /// subsequences and comparing it to the embedded one.
  ///
  /// Every decode runs on the batched engine (batch::BatchDecoder) over a
  /// MatchContext for the (watermarked.flow, suspicious, config) triple.
  /// `context`, when non-null and built for that triple, is used as is;
  /// the matching phase is then replayed from it with its recorded cost.
  /// Otherwise a local context is built first.  A context built for a
  /// different pair or key is silently ignored (counted under
  /// `match_context.misses`), so callers can pass whatever context they
  /// have on hand.
  ///
  /// With `config().budget` disabled this is exactly one decode of
  /// `algorithm()`, byte-identical to the scalar run_* reference in every
  /// field, cost included.  With a budget it is the degradation ladder:
  /// the tiers of fallback_ladder(algorithm()) decode in turn from the one
  /// context until one completes.  Every tier but the last decodes under
  /// the budget (the deadline is absolute, so the tiers share it;
  /// `max_cost` caps each attempt); the last decodes with no budget, so the
  /// ladder always returns a decision and the result is never interrupted.
  /// `degraded` is set when a tier below `algorithm()` produced the result,
  /// and `result.algorithm` names that tier.
  CorrelationResult correlate(const WatermarkedFlow& watermarked,
                              const Flow& suspicious,
                              const MatchContext* context = nullptr) const;

  const CorrelatorConfig& config() const { return config_; }
  Algorithm algorithm() const { return algorithm_; }

 private:
  CorrelatorConfig config_;
  Algorithm algorithm_;
};

/// The degradation ladder starting at `preferred`: `preferred`, then every
/// strictly cheaper tier in the fixed cost order BruteForce → Greedy* →
/// Greedy+ → Greedy (figs 7-10).  Never empty; Greedy is always last.  A
/// view into one static array.
std::span<const Algorithm> fallback_ladder(Algorithm preferred);

/// Records one decode-introspection row (trace::DecodeRecord) for a
/// finished run: `algorithm` labels it, the per-bit outcomes compare
/// `result`'s best watermark with `target`, and the pair's shape comes from
/// the two flow sizes and its matching `windows`.  Callers guard with
/// trace::decode_enabled().
void record_decode_trace(std::string algorithm, const Watermark& target,
                         const CorrelationResult& result,
                         std::span<const MatchWindow> windows,
                         std::size_t upstream_packets,
                         std::size_t downstream_packets);

}  // namespace sscor
