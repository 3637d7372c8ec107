#include "sscor/fuzz/oracles.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "sscor/correlation/brute_force.hpp"
#include "sscor/correlation/correlator.hpp"
#include "sscor/correlation/greedy.hpp"
#include "sscor/correlation/greedy_plus.hpp"
#include "sscor/correlation/greedy_star.hpp"
#include "sscor/experiment/stream_corpus.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/flow/flow_io.hpp"
#include "sscor/stream/frame.hpp"
#include "sscor/stream/stream_engine.hpp"
#include "sscor/fuzz/alloc_guard.hpp"
#include "sscor/fuzz/generators.hpp"
#include "sscor/matching/batch_kernel.hpp"
#include "sscor/matching/match_context.hpp"
#include "sscor/pcap/pcap_reader.hpp"
#include "sscor/pcap/pcapng_reader.hpp"
#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/watermark/decode_plan.hpp"
#include "sscor/watermark/decoder.hpp"
#include "sscor/watermark/embedder.hpp"
#include "sscor/watermark/quantization.hpp"

namespace sscor::fuzz {
namespace {

// ---------------------------------------------------------------------------
// Case payload format shared by the pipeline oracles.
//
//   # sscor-fuzz-case v1
//   p <name> <int64>
//   ...
//   flow
//   # sscor-flow v1 <id>
//   <flow lines>
//
// Self-contained: parameters and the input flow travel inside the payload,
// so a replayed or shrunk payload needs no out-of-band state.  check()
// clamps every parameter into its legal range instead of rejecting, which
// keeps mutated payloads checkable; a payload that fails to parse at all is
// a skip, never a violation (the shrinker produces such payloads routinely).

constexpr const char* kCaseMagic = "# sscor-fuzz-case v1";

OracleResult skip_case() {
  OracleResult result;
  result.skipped = true;
  return result;
}

OracleResult violation(std::string message) {
  OracleResult result;
  result.ok = false;
  result.message = std::move(message);
  return result;
}

struct ParsedCase {
  std::map<std::string, std::int64_t> params;
  Flow flow;
};

std::vector<std::uint8_t> serialize_case(
    const std::vector<std::pair<std::string, std::int64_t>>& params,
    const Flow& flow) {
  std::ostringstream out;
  out << kCaseMagic << '\n';
  for (const auto& [name, value] : params) {
    out << "p " << name << ' ' << value << '\n';
  }
  out << "flow\n";
  write_flow_text(out, flow);
  const std::string text = out.str();
  return {text.begin(), text.end()};
}

std::optional<ParsedCase> parse_case(const std::vector<std::uint8_t>& payload) {
  std::string text(payload.begin(), payload.end());
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCaseMagic) return std::nullopt;
  ParsedCase parsed;
  bool saw_flow = false;
  while (std::getline(in, line)) {
    if (line == "flow") {
      saw_flow = true;
      break;
    }
    std::istringstream fields(line);
    std::string tag, name, value_token, extra;
    if (!(fields >> tag >> name >> value_token) || tag != "p" ||
        fields >> extra) {
      return std::nullopt;
    }
    std::int64_t value = 0;
    const char* const begin = value_token.data();
    const char* const end = begin + value_token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    parsed.params[name] = value;
  }
  if (!saw_flow) return std::nullopt;
  try {
    parsed.flow = read_flow_text(in);
  } catch (const Error&) {
    return std::nullopt;
  }
  return parsed;
}

std::int64_t get_clamped(const ParsedCase& parsed, const std::string& key,
                         std::int64_t fallback, std::int64_t lo,
                         std::int64_t hi) {
  const auto it = parsed.params.find(key);
  const std::int64_t v = it == parsed.params.end() ? fallback : it->second;
  return std::clamp(v, lo, hi);
}

Watermark watermark_from_mask(std::uint64_t mask, std::uint32_t bits) {
  std::vector<std::uint8_t> b(bits);
  for (std::uint32_t i = 0; i < bits; ++i) {
    b[i] = static_cast<std::uint8_t>((mask >> (i % 64)) & 1);
  }
  return Watermark(std::move(b));
}

/// Timestamp magnitude cap: keeps every downstream arithmetic step (delays,
/// window scans) far from int64 overflow no matter how a payload was
/// mutated.
constexpr TimeUs kMaxAbsTimestamp = TimeUs{1} << 59;

bool flow_in_range(const Flow& flow) {
  return flow.empty() || (flow.start_time() > -kMaxAbsTimestamp &&
                          flow.end_time() < kMaxAbsTimestamp);
}

bool flow_has_chaff(const Flow& flow) { return flow.chaff_count() > 0; }

// ---------------------------------------------------------------------------
// Oracle 1: qim_roundtrip.

class QimRoundtripOracle final : public Oracle {
 public:
  std::string_view name() const override { return "qim_roundtrip"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    QimParams params;
    // Even steps expose the centre + s/2 boundary (s/2 == s - s/2 only for
    // odd s); generate both parities deliberately.
    params.step = millis(2 + static_cast<std::int64_t>(rng.uniform_u64(498)));
    if (rng.bernoulli(0.5)) params.step += 1;
    params.bits = 2 + static_cast<std::uint32_t>(rng.uniform_u64(7));
    params.redundancy = 1 + static_cast<std::uint32_t>(rng.uniform_u64(2));
    const std::uint64_t key = rng();
    const std::uint64_t wm_mask = rng.uniform_u64(std::uint64_t{1}
                                                  << params.bits);

    AdversarialFlowOptions opts;
    const std::size_t pairs = params.bits * 2 * params.redundancy;
    opts.min_packets = 2 * pairs + 2;
    opts.max_packets = opts.min_packets + 48;
    opts.quant_step = params.step;
    // All IPDs > 2*step: per-packet embedding delay stays below 2*step, so
    // no FIFO cascade and the round-trip must be exact.
    opts.min_ipd = 2 * params.step + 1;
    opts.base_ipd = 3 * params.step;
    const Flow flow = generate_adversarial_flow(rng, opts);

    return serialize_case(
        {{"step", params.step},
         {"bits", params.bits},
         {"redundancy", params.redundancy},
         {"key", static_cast<std::int64_t>(key)},
         {"wm", static_cast<std::int64_t>(wm_mask)}},
        flow);
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    QimParams params;
    params.step = get_clamped(*parsed, "step", millis(400), 1000, seconds(std::int64_t{2}));
    params.bits = static_cast<std::uint32_t>(
        get_clamped(*parsed, "bits", 4, 1, 16));
    params.redundancy = static_cast<std::uint32_t>(
        get_clamped(*parsed, "redundancy", 1, 1, 4));
    const auto key = static_cast<std::uint64_t>(
        get_clamped(*parsed, "key", 1, INT64_MIN, INT64_MAX));
    const auto wm_mask = static_cast<std::uint64_t>(
        get_clamped(*parsed, "wm", 0, INT64_MIN, INT64_MAX));
    const Flow& flow = parsed->flow;
    if (!flow_in_range(flow)) return skip_case();
    // Precondition of exactness: every IPD strictly above 2*step.
    for (std::size_t i = 0; i + 1 < flow.size(); ++i) {
      if (flow.ipd(i) <= 2 * params.step) {
        return skip_case();
      }
    }
    const Watermark wm = watermark_from_mask(wm_mask, params.bits);
    QimWatermarkedFlow marked;
    try {
      marked = QimEmbedder(params, key).embed(flow, wm);
    } catch (const InvalidArgument&) {
      return skip_case();  // flow too short for schedule
    }
    const auto decoded =
        decode_qim_positional(marked.schedule, params.step, marked.flow);
    if (!decoded) {
      return violation("decode_qim_positional returned nullopt on the "
                         "embedder's own output");
    }
    const std::size_t hamming = decoded->hamming_distance(wm);
    if (hamming != 0) {
      return violation("QIM round-trip lost " + std::to_string(hamming) +
                         " of " + std::to_string(params.bits) +
                         " bits with step " + std::to_string(params.step) +
                         "us although every IPD exceeds 2*step (decoded " +
                         decoded->to_string() + ", embedded " +
                         wm.to_string() + ")");
    }
    return {};
  }
};

// ---------------------------------------------------------------------------
// Shared embed -> perturb -> chaff pipeline for oracles 2 and 3.

struct Pipeline {
  WatermarkedFlow watermarked;
  Flow downstream;
  CorrelatorConfig config;
  DurationUs const_delay = 0;
  DurationUs perturb_max = 0;
};

std::vector<std::uint8_t> generate_pipeline_case(
    Rng& rng, std::uint32_t max_bits,
    std::vector<std::pair<std::string, std::int64_t>> extra = {}) {
  WatermarkParams params;
  params.bits = 2 + static_cast<std::uint32_t>(rng.uniform_u64(max_bits - 1));
  params.redundancy = rng.bernoulli(0.7) ? 1 : 2;
  params.embedding_delay =
      millis(100 + static_cast<std::int64_t>(rng.uniform_u64(900)));
  const std::uint64_t key = rng();
  const std::uint64_t wm_mask =
      rng.uniform_u64(std::uint64_t{1} << params.bits);
  const DurationUs const_delay =
      rng.bernoulli(0.7)
          ? static_cast<DurationUs>(rng.uniform_u64(seconds(std::int64_t{2})))
          : 0;
  const DurationUs perturb_max =
      rng.bernoulli(0.6) ? static_cast<DurationUs>(rng.uniform_u64(800'000))
                         : 0;
  const std::int64_t chaff_millipps =
      rng.bernoulli(0.5) ? static_cast<std::int64_t>(rng.uniform_u64(1500))
                         : 0;
  // Mostly give the matcher a Delta that admits the true assignment; with
  // small probability starve it to exercise the incomplete-matching paths.
  const DurationUs max_delay =
      rng.bernoulli(0.15)
          ? std::max<DurationUs>(1, (const_delay + perturb_max) / 2)
          : const_delay + perturb_max +
                static_cast<DurationUs>(rng.uniform_u64(300'000)) + 1;

  AdversarialFlowOptions opts;
  const std::size_t pairs = params.bits * 2 * params.redundancy;
  opts.min_packets = 2 * pairs + 2;
  opts.max_packets = opts.min_packets + 30;
  opts.base_ipd = 2 * params.embedding_delay +
                  static_cast<DurationUs>(rng.uniform_u64(seconds(std::int64_t{1})));
  const Flow flow = generate_adversarial_flow(rng, opts);

  std::vector<std::pair<std::string, std::int64_t>> params_list =
      {{"bits", params.bits},
       {"redundancy", params.redundancy},
       {"embed_delay", params.embedding_delay},
       {"key", static_cast<std::int64_t>(key)},
       {"wm", static_cast<std::int64_t>(wm_mask)},
       {"const_delay", const_delay},
       {"perturb_max", perturb_max},
       {"perturb_seed", static_cast<std::int64_t>(rng())},
       {"chaff_millipps", chaff_millipps},
       {"chaff_seed", static_cast<std::int64_t>(rng())},
       {"max_delay", max_delay},
       {"threshold",
        static_cast<std::int64_t>(rng.uniform_u64(params.bits + 1))},
       {"cost_bound",
        20'000 + static_cast<std::int64_t>(rng.uniform_u64(180'000))},
       {"size_block", rng.bernoulli(0.3) ? 16 : 0}};
  for (auto& p : extra) params_list.push_back(std::move(p));
  return serialize_case(params_list, flow);
}

/// Cases whose expected chaff volume (rate x flow span) exceeds this are
/// skipped; generated cases stay below a few thousand packets.
constexpr double kMaxExpectedChaffPackets = 100'000;

std::optional<Pipeline> build_pipeline(const ParsedCase& parsed) {
  WatermarkParams params;
  params.bits =
      static_cast<std::uint32_t>(get_clamped(parsed, "bits", 3, 2, 6));
  params.redundancy = static_cast<std::uint32_t>(
      get_clamped(parsed, "redundancy", 1, 1, 2));
  params.embedding_delay =
      get_clamped(parsed, "embed_delay", millis(600), millis(10), seconds(std::int64_t{1}));
  const auto key = static_cast<std::uint64_t>(
      get_clamped(parsed, "key", 1, INT64_MIN, INT64_MAX));
  const auto wm_mask = static_cast<std::uint64_t>(
      get_clamped(parsed, "wm", 0, INT64_MIN, INT64_MAX));
  const Flow& flow = parsed.flow;
  if (!flow_in_range(flow) || flow.size() > 2048 || flow_has_chaff(flow)) {
    return std::nullopt;
  }

  Pipeline pipe;
  const Watermark wm = watermark_from_mask(wm_mask, params.bits);
  try {
    pipe.watermarked = Embedder(params, key).embed(flow, wm);
  } catch (const InvalidArgument&) {
    return std::nullopt;  // flow too short for the schedule
  }
  pipe.const_delay = get_clamped(parsed, "const_delay", 0, 0,
                                 seconds(std::int64_t{3}));
  pipe.perturb_max = get_clamped(parsed, "perturb_max", 0, 0, seconds(std::int64_t{1}));
  const std::int64_t chaff_millipps =
      get_clamped(parsed, "chaff_millipps", 0, 0, 3000);
  const auto perturb_seed = static_cast<std::uint64_t>(
      get_clamped(parsed, "perturb_seed", 7, INT64_MIN, INT64_MAX));
  const auto chaff_seed = static_cast<std::uint64_t>(
      get_clamped(parsed, "chaff_seed", 9, INT64_MIN, INT64_MAX));

  pipe.downstream = pipe.watermarked.flow;
  if (pipe.const_delay > 0) {
    pipe.downstream =
        traffic::ConstantDelay(pipe.const_delay).apply(pipe.downstream);
  }
  if (pipe.perturb_max > 0) {
    pipe.downstream = traffic::UniformPerturber(pipe.perturb_max, perturb_seed)
                          .apply(pipe.downstream);
  }
  if (chaff_millipps > 0) {
    // A shrunk case can merge digits into a timestamp decades out; its
    // chaff would not fit in memory, and no property needs it.
    const double span_s =
        static_cast<double>(pipe.downstream.end_time() -
                            pipe.downstream.start_time()) /
        1e6;
    if (static_cast<double>(chaff_millipps) / 1000.0 * span_s >
        kMaxExpectedChaffPackets) {
      return std::nullopt;
    }
    pipe.downstream = traffic::PoissonChaffInjector(
                          static_cast<double>(chaff_millipps) / 1000.0,
                          chaff_seed)
                          .apply(pipe.downstream);
  }

  pipe.config.max_delay = get_clamped(parsed, "max_delay", seconds(std::int64_t{1}), 1,
                                      seconds(std::int64_t{8}));
  pipe.config.hamming_threshold = static_cast<std::uint32_t>(
      get_clamped(parsed, "threshold", 1, 0, params.bits));
  pipe.config.cost_bound = static_cast<std::uint64_t>(
      get_clamped(parsed, "cost_bound", 100'000, 10'000, 500'000));
  const std::int64_t size_block = get_clamped(parsed, "size_block", 0, 0, 64);
  if (size_block > 0) {
    pipe.config.size_constraint =
        SizeConstraint{static_cast<std::uint32_t>(size_block)};
  }
  return pipe;
}

/// The downstream flow minus chaff is exactly the (delayed, perturbed)
/// watermarked flow — the paper's "true assignment".  Rebuilt from the
/// ground-truth chaff flags for the identity-decode bound.
Flow true_assignment_flow(const Flow& downstream) {
  std::vector<PacketRecord> packets;
  packets.reserve(downstream.size());
  for (const auto& p : downstream.packets()) {
    if (!p.is_chaff) packets.push_back(p);
  }
  return Flow(std::move(packets), "true-assignment");
}

// ---------------------------------------------------------------------------
// Oracle 2: differential.

class DifferentialOracle final : public Oracle {
 public:
  std::string_view name() const override { return "differential"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    return generate_pipeline_case(rng, /*max_bits=*/5);
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto pipe = build_pipeline(*parsed);
    if (!pipe) return skip_case();

    const KeySchedule& schedule = pipe->watermarked.schedule;
    const Watermark& wm = pipe->watermarked.watermark;
    const Flow& up = pipe->watermarked.flow;
    const Flow& down = pipe->downstream;
    const CorrelatorConfig& config = pipe->config;

    const CorrelationResult bf =
        run_brute_force(schedule, wm, up, down, config);
    const CorrelationResult greedy =
        run_greedy(schedule, wm, up, down, config);
    const CorrelationResult gp =
        run_greedy_plus(schedule, wm, up, down, config);
    const CorrelationResult gs =
        run_greedy_star(schedule, wm, up, down, config);

    // The matching-complete verdict is watermark-independent; the three
    // matching-based algorithms must agree on it.
    if (gp.matching_complete != bf.matching_complete ||
        gs.matching_complete != bf.matching_complete) {
      return violation("matching_complete disagrees: brute-force " +
                         std::to_string(bf.matching_complete) + ", greedy+ " +
                         std::to_string(gp.matching_complete) + ", greedy* " +
                         std::to_string(gs.matching_complete));
    }

    // A correlation verdict must be backed by a within-threshold decode.
    for (const CorrelationResult* r : {&bf, &greedy, &gp, &gs}) {
      if (r->correlated && (!r->matching_complete ||
                            r->hamming > config.hamming_threshold)) {
        return violation(to_string(r->algorithm) +
                           " reported correlated with hamming " +
                           std::to_string(r->hamming) + " above threshold " +
                           std::to_string(config.hamming_threshold));
      }
    }

    // Delta admits every true delay => the true assignment exists and
    // matching must be complete.
    if (pipe->const_delay + pipe->perturb_max <= config.max_delay &&
        !bf.matching_complete) {
      return violation("matching incomplete although every true delay is "
                         "within Delta (const " +
                         std::to_string(pipe->const_delay) + " + perturb " +
                         std::to_string(pipe->perturb_max) + " <= " +
                         std::to_string(config.max_delay) + ")");
    }

    // The remaining invariants need BruteForce to be exact ground truth.
    if (!bf.matching_complete || bf.cost_bound_hit) return {};

    if (greedy.hamming > bf.hamming) {
      return violation("greedy hamming " + std::to_string(greedy.hamming) +
                         " exceeds the exact brute-force minimum " +
                         std::to_string(bf.hamming) +
                         " (greedy must lower-bound every assignment)");
    }
    for (const CorrelationResult* r : {&gp, &gs}) {
      if (r->hamming < bf.hamming) {
        return violation(to_string(r->algorithm) + " hamming " +
                           std::to_string(r->hamming) +
                           " beats the exact brute-force minimum " +
                           std::to_string(bf.hamming) +
                           " — it decoded an assignment brute force missed");
      }
    }

    // Identity bound: decoding the true assignment positionally gives an
    // upper bound no exact search may exceed.
    const Flow identity = true_assignment_flow(down);
    if (identity.size() != up.size()) {
      return violation("chaff injection dropped or relabelled real "
                         "packets: " +
                         std::to_string(up.size()) + " in, " +
                         std::to_string(identity.size()) + " non-chaff out");
    }
    if (pipe->const_delay + pipe->perturb_max <= config.max_delay) {
      const auto true_decode = decode_positional(schedule, identity);
      if (true_decode) {
        const std::size_t h_true = true_decode->hamming_distance(wm);
        if (bf.hamming > h_true) {
          return violation("brute force hamming " +
                             std::to_string(bf.hamming) +
                             " exceeds the true-assignment decode " +
                             std::to_string(h_true) +
                             " although the true assignment is within Delta");
        }
      }
    }
    return {};
  }
};

// ---------------------------------------------------------------------------
// Oracles 3-5: decode parity (batch_parity, resilient_parity,
// chaos_decode).

/// The resilience ladder's tier order; index parameters in the chaos
/// payloads select from it.
constexpr Algorithm kResilienceTiers[] = {
    Algorithm::kBruteForce, Algorithm::kGreedyStar, Algorithm::kGreedyPlus,
    Algorithm::kGreedy};

/// Field-by-field comparison of the result fields that must survive any
/// re-run (empty string = identical).  `degraded`/`stop_reason` are
/// deliberately excluded: they describe *how* a result was produced, and
/// the parity oracles compare runs that produce the same decision through
/// different machinery.
std::string result_mismatch(const std::string& label,
                            const CorrelationResult& a,
                            const CorrelationResult& b) {
  const auto field = [&](const char* what, auto x, auto y) {
    return label + ": " + what + " " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  if (a.correlated != b.correlated) {
    return field("correlated", a.correlated, b.correlated);
  }
  if (a.hamming != b.hamming) return field("hamming", a.hamming, b.hamming);
  if (a.cost != b.cost) return field("cost", a.cost, b.cost);
  if (a.matching_complete != b.matching_complete) {
    return field("matching_complete", a.matching_complete,
                 b.matching_complete);
  }
  if (a.cost_bound_hit != b.cost_bound_hit) {
    return field("cost_bound_hit", a.cost_bound_hit, b.cost_bound_hit);
  }
  if (a.interrupted != b.interrupted) {
    return field("interrupted", a.interrupted, b.interrupted);
  }
  if (!(a.best_watermark == b.best_watermark)) {
    return label + ": best watermark " + a.best_watermark.to_string() +
           " vs " + b.best_watermark.to_string();
  }
  return {};
}

/// The scalar reference run of `algorithm`: it runs its own matching phase.
CorrelationResult run_cold_scalar(Algorithm algorithm,
                                  const WatermarkedFlow& marked,
                                  const Flow& down,
                                  const CorrelatorConfig& config) {
  switch (algorithm) {
    case Algorithm::kBruteForce:
      return run_brute_force(marked.schedule, marked.watermark, marked.flow,
                             down, config);
    case Algorithm::kGreedy:
      return run_greedy(marked.schedule, marked.watermark, marked.flow, down,
                        config);
    case Algorithm::kGreedyPlus:
      return run_greedy_plus(marked.schedule, marked.watermark, marked.flow,
                             down, config);
    case Algorithm::kGreedyStar:
      return run_greedy_star(marked.schedule, marked.watermark, marked.flow,
                             down, config);
  }
  throw InternalError("unhandled algorithm");
}

/// batch_parity: production decodes equal the cold scalar reference, which
/// shares no matching state with them.  For every algorithm the reference
/// must equal BatchDecoder::decode_one over the pair's MatchContext,
/// decoded twice through one reused workspace (scratch an earlier decode
/// dirtied must not leak, and a decode must not change the context), and
/// Correlator::correlate with no context.
class BatchParityOracle final : public Oracle {
 public:
  std::string_view name() const override { return "batch_parity"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    return generate_pipeline_case(rng, /*max_bits=*/4);
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto pipe = build_pipeline(*parsed);
    if (!pipe) return skip_case();

    const WatermarkedFlow& marked = pipe->watermarked;
    const Flow& down = pipe->downstream;
    const CorrelatorConfig& config = pipe->config;
    const MatchContext context = MatchContext::build(
        marked.flow, down, config.max_delay, config.size_constraint);

    // One workspace across every check: later decodes run over scratch the
    // earlier ones dirtied.
    batch::DecodeWorkspace workspace;
    batch::BatchDecoder decoder(config, &workspace);
    const DecodePlan plan(marked.schedule, marked.watermark);

    for (const Algorithm algorithm :
         {Algorithm::kBruteForce, Algorithm::kGreedy, Algorithm::kGreedyPlus,
          Algorithm::kGreedyStar}) {
      const std::string label = to_string(algorithm) + " cold scalar vs ";
      const auto reference = run_cold_scalar(algorithm, marked, down, config);
      const auto shared = decoder.decode_one(algorithm, context, plan);
      const auto again = decoder.decode_one(algorithm, context, plan);
      const auto production =
          Correlator(config, algorithm).correlate(marked, down);
      for (const auto& [what, result] :
           {std::pair{"shared context", &shared},
            std::pair{"shared context, second decode", &again},
            std::pair{"correlate", &production}}) {
        if (auto m = result_mismatch(label + what, reference, *result);
            !m.empty()) {
          return violation(std::move(m));
        }
      }
    }
    return {};
  }
};

/// resilient_parity: whatever tier Correlator's degradation ladder lands
/// on, its result must be byte-identical to one BatchDecoder attempt of
/// that tier under the budget it received in the ladder (no budget at all
/// for the always-completes last tier).  With no budget the ladder must be
/// the one plain decode exactly.
class ResilientParityOracle final : public Oracle {
 public:
  std::string_view name() const override { return "resilient_parity"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    // Small per-attempt budgets make the ladder actually degrade in a
    // sizeable fraction of cases; a quarter of them (1-200) interrupt even
    // Greedy, so a last tier that kept the cap would show; 0 exercises the
    // budget-free single decode.
    std::int64_t attempt_cost = 0;
    if (rng.bernoulli(0.75)) {
      attempt_cost =
          rng.bernoulli(1.0 / 3.0)
              ? 1 + static_cast<std::int64_t>(rng.uniform_u64(200))
              : 50 + static_cast<std::int64_t>(rng.uniform_u64(30'000));
    }
    return generate_pipeline_case(
        rng, /*max_bits=*/4,
        {{"preferred", static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"attempt_cost", attempt_cost}});
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto pipe = build_pipeline(*parsed);
    if (!pipe) return skip_case();
    const Algorithm preferred = kResilienceTiers[get_clamped(
        *parsed, "preferred", 0, 0, 3)];
    const auto attempt_cost = static_cast<std::uint64_t>(
        get_clamped(*parsed, "attempt_cost", 0, 0, 500'000));

    CorrelatorConfig ladder_config = pipe->config;
    ladder_config.budget.max_cost = attempt_cost;
    CorrelationResult ladder;
    try {
      ladder = Correlator(ladder_config, preferred)
                   .correlate(pipe->watermarked, pipe->downstream);
    } catch (const std::exception& e) {
      return violation(std::string("budgeted correlate threw: ") + e.what());
    }

    // The ladder must land on a tier at or below `preferred`, and flag
    // degradation exactly when it moved.
    const auto ladder_tiers = fallback_ladder(preferred);
    if (std::find(ladder_tiers.begin(), ladder_tiers.end(),
                  ladder.algorithm) == ladder_tiers.end()) {
      return violation("ladder returned algorithm " +
                       to_string(ladder.algorithm) +
                       " that is not on the fallback ladder of " +
                       to_string(preferred));
    }
    if (ladder.degraded != (ladder.algorithm != preferred)) {
      return violation("degraded flag " + std::to_string(ladder.degraded) +
                       " inconsistent with tiers: preferred " +
                       to_string(preferred) + ", achieved " +
                       to_string(ladder.algorithm));
    }
    // The final tier decodes with no budget, and every other tier falls
    // back when interrupted: no ladder result is interrupted.
    if (ladder.interrupted) {
      return violation("ladder returned an interrupted " +
                       to_string(ladder.algorithm) + " result");
    }

    // Replay the achieved tier as one attempt under the budget it received
    // in the ladder: the per-attempt cost cap for non-final tiers, nothing
    // for the final tier (the ladder lifts its caps so it always
    // completes).
    CorrelatorConfig direct_config = pipe->config;
    if (ladder.algorithm != Algorithm::kGreedy) {
      direct_config.budget.max_cost = attempt_cost;
    }
    const MatchContext context = MatchContext::build(
        pipe->watermarked.flow, pipe->downstream, direct_config.max_delay,
        direct_config.size_constraint);
    const DecodePlan plan(pipe->watermarked.schedule,
                          pipe->watermarked.watermark);
    const CorrelationResult replay =
        batch::BatchDecoder(direct_config)
            .decode_one(ladder.algorithm, context, plan);
    if (auto m = result_mismatch(
            "ladder tier " + to_string(ladder.algorithm) +
                " diverges from one attempt of the same algorithm",
            ladder, replay);
        !m.empty()) {
      return violation(std::move(m));
    }
    return {};
  }
};

/// chaos_decode: deterministic fault injection into a single decode
/// attempt (BatchDecoder::decode_one, where the budget probe lives) —
/// a per-attempt cost cap (DecodeBudget::max_cost), an already-expired
/// deadline, and/or an allocation budget that makes some heap request
/// throw bad_alloc mid-decode.  The contract under every injection mix:
/// a clean error or a correct result, never corruption.  Concretely:
/// no exception other than the injected bad_alloc escapes; an
/// uninterrupted chaos result is byte-identical to the clean baseline;
/// an interrupted result carries the injected stop reason and never a
/// torn correlated verdict; the chaos run is deterministic; and a clean
/// re-run afterwards (sharing the MatchContext) still reproduces the
/// baseline exactly.
class ChaosDecodeOracle final : public Oracle {
 public:
  std::string_view name() const override { return "chaos_decode"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    // These pipelines' decodes cost a few hundred accesses, so caps up to
    // 500 interrupt about half the attempts they arm and leave the rest
    // to check that an unfired cap changes nothing.
    const std::int64_t max_cost =
        rng.bernoulli(0.6)
            ? 1 + static_cast<std::int64_t>(rng.uniform_u64(500))
            : 0;
    const std::int64_t alloc_kb =
        rng.bernoulli(0.35)
            ? 64 + static_cast<std::int64_t>(rng.uniform_u64(2048))
            : 0;
    return generate_pipeline_case(
        rng, /*max_bits=*/4,
        {{"algo", static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"max_cost", max_cost},
         {"alloc_kb", alloc_kb},
         {"expired_deadline", rng.bernoulli(0.25) ? 1 : 0}});
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto pipe = build_pipeline(*parsed);
    if (!pipe) return skip_case();
    const Algorithm algo =
        kResilienceTiers[get_clamped(*parsed, "algo", 0, 0, 3)];
    const auto max_cost = static_cast<std::uint64_t>(
        get_clamped(*parsed, "max_cost", 0, 0, 1'000'000));
    const auto alloc_budget = static_cast<std::size_t>(
        get_clamped(*parsed, "alloc_kb", 0, 0, 1 << 20)) << 10;
    const bool expired =
        get_clamped(*parsed, "expired_deadline", 0, 0, 1) != 0;
    if (max_cost == 0 && alloc_budget == 0 && !expired) return skip_case();

    const Flow& down = pipe->downstream;
    const MatchContext context =
        MatchContext::build(pipe->watermarked.flow, down,
                            pipe->config.max_delay,
                            pipe->config.size_constraint);
    const Correlator plain(pipe->config, algo);
    const CorrelationResult baseline =
        plain.correlate(pipe->watermarked, down, &context);
    const DecodePlan plan(pipe->watermarked.schedule,
                          pipe->watermarked.watermark);

    struct ChaosOutcome {
      bool returned = false;
      bool bad_alloc = false;
      std::string unexpected;
      CorrelationResult result;
    };
    const auto run_chaos = [&]() {
      ChaosOutcome out;
      CorrelatorConfig chaos_config = pipe->config;
      chaos_config.budget.max_cost = max_cost;
      if (expired) {
        // A deadline pinned at the steady-clock epoch: expired before the
        // decode starts, yet fully deterministic (no live clock race).
        chaos_config.budget.deadline =
            Deadline::at(std::chrono::steady_clock::time_point{});
      }
      batch::BatchDecoder chaotic(chaos_config);
      try {
        if (alloc_budget > 0) {
          AllocationGuard guard(alloc_budget);
          out.result = chaotic.decode_one(algo, context, plan);
        } else {
          out.result = chaotic.decode_one(algo, context, plan);
        }
        out.returned = true;
      } catch (const std::bad_alloc&) {
        out.bad_alloc = true;
      } catch (const std::exception& e) {
        out.unexpected = e.what();
      }
      return out;
    };

    const ChaosOutcome first = run_chaos();
    if (!first.unexpected.empty()) {
      return violation("chaos decode threw a non-injected exception: " +
                       first.unexpected);
    }
    if (first.bad_alloc && alloc_budget == 0) {
      return violation("decode threw bad_alloc with no allocation budget "
                       "armed");
    }
    if (first.returned) {
      const CorrelationResult& r = first.result;
      if (!r.interrupted) {
        if (auto m = result_mismatch(
                to_string(algo) +
                    ": armed-but-unfired budget perturbed the decode",
                r, baseline);
            !m.empty()) {
          return violation(std::move(m));
        }
        if (r.stop_reason != StopReason::kNone) {
          return violation("uninterrupted decode carries stop reason " +
                           to_string(r.stop_reason));
        }
      } else {
        const bool reason_injected =
            (r.stop_reason == StopReason::kCostBudget && max_cost > 0) ||
            (r.stop_reason == StopReason::kDeadline && expired);
        if (!reason_injected) {
          return violation("interrupted decode reports stop reason '" +
                           to_string(r.stop_reason) +
                           "' which no injection armed (max cost " +
                           std::to_string(max_cost) + ", expired deadline " +
                           std::to_string(expired) + ")");
        }
        if (r.correlated &&
            r.hamming > pipe->config.hamming_threshold) {
          return violation("interrupted decode reports a torn verdict: "
                           "correlated with hamming " +
                           std::to_string(r.hamming) + " above threshold " +
                           std::to_string(pipe->config.hamming_threshold));
        }
      }
    }

    // Injection points are costs and allocation counts, not clock reads:
    // the chaos run must replay bit-for-bit.
    const ChaosOutcome second = run_chaos();
    if (second.returned != first.returned ||
        second.bad_alloc != first.bad_alloc) {
      return violation("chaos decode is nondeterministic: first run " +
                       std::string(first.returned ? "returned" :
                                   "threw bad_alloc") +
                       ", second run " +
                       std::string(second.returned ? "returned" :
                                   "threw bad_alloc"));
    }
    if (first.returned && second.returned) {
      if (auto m = result_mismatch("chaos decode replay diverges",
                                   first.result, second.result);
          !m.empty()) {
        return violation(std::move(m));
      }
      if (first.result.stop_reason != second.result.stop_reason) {
        return violation("chaos decode replay diverges: stop reason " +
                         to_string(first.result.stop_reason) + " vs " +
                         to_string(second.result.stop_reason));
      }
    }

    // No corruption: after an aborted (or budget-starved) decode the same
    // correlator and shared MatchContext must still produce the clean
    // baseline.
    const CorrelationResult after =
        plain.correlate(pipe->watermarked, down, &context);
    if (auto m = result_mismatch(
            "clean decode after a chaos-injected run lost parity", after,
            baseline);
        !m.empty()) {
      return violation(std::move(m));
    }
    return {};
  }
};

/// chaos_sweep: mid-sweep abort and journal-tamper injection for a
/// journaled sweep (shard 0 of 1).  A sweep aborted by an exception from
/// its progress callback, followed by a resume (over an optionally tampered
/// journal), must reproduce the uninterrupted table byte-for-byte —
/// crash-safety's observable contract.
class ChaosSweepOracle final : public Oracle {
 public:
  std::string_view name() const override { return "chaos_sweep"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    return serialize_case(
        {{"seed", static_cast<std::int64_t>(rng())},
         {"bits", 2 + static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"abort_after", static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"corrupt", rng.bernoulli(0.3) ? 1 : 0},
         {"torn_tail", rng.bernoulli(0.3) ? 1 : 0}},
        Flow());
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    namespace fs = std::filesystem;
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto bits = static_cast<std::uint32_t>(
        get_clamped(*parsed, "bits", 3, 2, 6));
    const auto abort_after = static_cast<std::size_t>(
        get_clamped(*parsed, "abort_after", 0, 0, 5));
    const bool corrupt = get_clamped(*parsed, "corrupt", 0, 0, 1) != 0;
    const bool torn_tail = get_clamped(*parsed, "torn_tail", 0, 0, 1) != 0;

    experiment::ExperimentConfig config;
    config.watermark.bits = bits;
    config.watermark.redundancy = 1;
    config.flows = 2;
    config.packets_per_flow = 4 * bits + 24;
    config.fp_pairs = 2;
    config.cost_bound = 50'000;
    config.master_seed = static_cast<std::uint64_t>(
        get_clamped(*parsed, "seed", 1, INT64_MIN, INT64_MAX));
    config.threads = 1;  // deterministic progress order for the injection
    experiment::SweepSpec spec;
    spec.metric = experiment::Metric::kDetectionRate;
    spec.axis = experiment::SweepAxis::kChaffRate;
    spec.chaff_rates = {0.0, 1.5, 3.0};

    std::string clean;
    try {
      clean = run_sweep(config, spec).to_string();
    } catch (const std::exception& e) {
      return violation(std::string("clean mini-sweep threw: ") + e.what());
    }

    const fs::path dir =
        fs::temp_directory_path() /
        ("sscor-chaos-sweep-" +
         std::to_string(experiment::sweep_fingerprint(config, spec)));
    const fs::path path = dir / experiment::shard_journal_name(0, 1);
    std::error_code ec;
    fs::remove_all(dir, ec);
    experiment::ShardSpec shard;
    shard.journal_dir = dir.string();

    // The progress callback runs before its point computes, so throwing
    // from the (abort_after + 1)-th call leaves exactly abort_after points
    // journaled.
    struct InjectedAbort {};
    std::size_t started = 0;
    bool aborted = false;
    try {
      const auto interrupted = run_sweep_shard(
          config, spec, shard,
          [&](std::size_t, std::size_t, const std::string&) {
            if (++started > abort_after) throw InjectedAbort{};
          });
      // The abort point lies past the last point: the sweep ran to
      // completion and must match the clean table.
      if (!interrupted || interrupted->to_string() != clean) {
        fs::remove_all(dir, ec);
        return violation("journaled sweep that outran its abort "
                         "produced a different table");
      }
    } catch (const InjectedAbort&) {
      aborted = true;
    } catch (const std::exception& e) {
      fs::remove_all(dir, ec);
      return violation(std::string("aborted sweep threw ") + e.what() +
                       " instead of the injected exception");
    }
    if (aborted && !fs::exists(path)) {
      fs::remove_all(dir, ec);
      return violation("aborted sweep left no journal behind");
    }

    if (corrupt) {
      std::ofstream out(path, std::ios::app);
      out << "{\"crc32\":\"00000000\",\"data\":{\"point\":0,\"row\":[\"tam"
             "pered\"]}}\n";
    }
    if (torn_tail) {
      // The SIGKILL signature: a final line cut mid-record.
      std::ofstream out(path, std::ios::app);
      out << "{\"crc32\":\"12";
    }

    shard.resume = true;
    std::string resumed;
    try {
      const auto table = run_sweep_shard(config, spec, shard);
      if (table) resumed = table->to_string();
    } catch (const std::exception& e) {
      fs::remove_all(dir, ec);
      return violation(std::string("resume threw: ") + e.what());
    }
    fs::remove_all(dir, ec);
    if (resumed != clean) {
      return violation("resumed sweep table diverges from the clean run "
                       "(abort after " + std::to_string(abort_after) +
                       " points" + (corrupt ? ", corrupt line" : "") +
                       (torn_tail ? ", torn tail" : "") + ")");
    }
    return {};
  }
};

/// journal_merge: differential check of the cluster journal directory
/// (scan_journal_dir + merge_cluster) against a reference table whose rows
/// are derived purely from the case seed.  Rows are scattered across N
/// shard journals with optional claims, duplicate rows/claims, torn tails,
/// and corrupt lines; the merge must reproduce the reference bytes — or,
/// for a conflicting row / missing point, fail with a clean IoError — and
/// a second scan of the same directory must agree with the first.
class JournalMergeOracle final : public Oracle {
 public:
  std::string_view name() const override { return "journal_merge"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    return serialize_case(
        {{"seed", static_cast<std::int64_t>(rng())},
         {"points", 2 + static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"columns", 2 + static_cast<std::int64_t>(rng.uniform_u64(2))},
         {"shards", 1 + static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"dup_row", rng.bernoulli(0.3) ? 1 : 0},
         {"dup_claim", rng.bernoulli(0.2) ? 1 : 0},
         {"torn", rng.bernoulli(0.3) ? 1 : 0},
         {"corrupt", rng.bernoulli(0.3) ? 1 : 0},
         {"conflict", rng.bernoulli(0.15) ? 1 : 0},
         {"drop_point", rng.bernoulli(0.2) ? 1 : 0}},
        Flow());
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    namespace fs = std::filesystem;
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto seed = static_cast<std::uint64_t>(
        get_clamped(*parsed, "seed", 1, INT64_MIN, INT64_MAX));
    const auto points = static_cast<std::size_t>(
        get_clamped(*parsed, "points", 3, 2, 5));
    const auto columns = static_cast<std::size_t>(
        get_clamped(*parsed, "columns", 2, 2, 3));
    const auto shards = static_cast<std::size_t>(
        get_clamped(*parsed, "shards", 2, 1, 4));
    const bool dup_row = get_clamped(*parsed, "dup_row", 0, 0, 1) != 0;
    const bool dup_claim = get_clamped(*parsed, "dup_claim", 0, 0, 1) != 0;
    const bool torn = get_clamped(*parsed, "torn", 0, 0, 1) != 0;
    const bool corrupt = get_clamped(*parsed, "corrupt", 0, 0, 1) != 0;
    const bool conflict = get_clamped(*parsed, "conflict", 0, 0, 1) != 0;
    const bool drop_point =
        get_clamped(*parsed, "drop_point", 0, 0, 1) != 0;

    // Reference table, derived from the seed alone.
    Rng rows_rng(seed);
    std::vector<std::string> names{"x"};
    for (std::size_t c = 1; c < columns; ++c) {
      names.push_back("d" + std::to_string(c - 1));
    }
    std::vector<std::vector<std::string>> rows(points);
    for (std::size_t p = 0; p < points; ++p) {
      for (std::size_t c = 0; c < columns; ++c) {
        rows[p].push_back(std::to_string(rows_rng.uniform_u64(10'000)));
      }
    }
    TextTable reference(names);
    for (const auto& row : rows) reference.add_row(std::vector(row));
    const std::string expected = reference.to_string();

    const std::uint64_t fingerprint = experiment::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(payload.data()),
                         payload.size()));
    const fs::path dir =
        fs::temp_directory_path() /
        ("sscor-journal-merge-" + std::to_string(fingerprint));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);

    // The last point is reassigned from its owner to the next shard via a
    // claim record (the work-stealing wire format); when drop_point is
    // set, the claim lands but the row never does — a claimer that died
    // mid-compute.
    const std::size_t moved = points - 1;
    const std::size_t moved_owner = moved % shards;
    const std::size_t claimer = (moved_owner + 1) % shards;
    const bool use_claim = shards > 1;
    const std::string header_data = experiment::encode_checkpoint_header(
        fingerprint, points, columns, names);
    for (std::size_t i = 0; i < shards; ++i) {
      auto journal = experiment::CheckpointJournal::create(
          (dir / experiment::shard_journal_name(i, shards)).string(),
          header_data);
      if (use_claim && i == claimer) {
        journal.append(experiment::encode_checkpoint_claim(moved, i));
        if (dup_claim) {
          journal.append(experiment::encode_checkpoint_claim(moved, i));
        }
      }
      for (std::size_t p = 0; p < points; ++p) {
        const std::size_t writer =
            (use_claim && p == moved) ? claimer : p % shards;
        if (writer != i) continue;
        if (p == moved && drop_point) continue;
        journal.append(experiment::encode_checkpoint_row(p, rows[p]));
      }
      if (dup_row && i == 0) {
        // Identical bytes for a point someone else owns: a raced steal.
        journal.append(experiment::encode_checkpoint_row(0, rows[0]));
      }
      if (conflict && i == shards - 1) {
        auto bogus = rows[0];
        bogus.back() += "X";
        journal.append(experiment::encode_checkpoint_row(0, bogus));
      }
    }
    if (corrupt) {
      std::ofstream out(dir / experiment::shard_journal_name(0, shards),
                        std::ios::app);
      out << "{\"crc32\":\"00000000\",\"data\":{\"point\":0,\"row\":[\"ta"
             "mpered\"]}}\n";
    }
    if (torn) {
      std::ofstream out(
          dir / experiment::shard_journal_name(shards - 1, shards),
          std::ios::app);
      out << "{\"crc32\":\"12";  // SIGKILL mid-write
    }

    // Scan + merge twice: the outcome (success bytes or failure kind)
    // must be deterministic in the directory contents.
    std::string outcome[2];
    for (int round = 0; round < 2; ++round) {
      try {
        const experiment::ClusterScan scan =
            experiment::scan_journal_dir(dir.string());
        if (conflict) {
          fs::remove_all(dir, ec);
          return violation("conflicting rows for one point scanned "
                           "cleanly instead of throwing");
        }
        const std::size_t tampered_lines = (torn ? 1u : 0u) +
                                           (corrupt ? 1u : 0u);
        if (scan.dropped_lines != tampered_lines) {
          fs::remove_all(dir, ec);
          return violation(
              "scan dropped " + std::to_string(scan.dropped_lines) +
              " line(s), expected " + std::to_string(tampered_lines));
        }
        if (scan.duplicate_rows != (dup_row ? 1u : 0u)) {
          fs::remove_all(dir, ec);
          return violation("duplicate-row count off: " +
                           std::to_string(scan.duplicate_rows));
        }
        outcome[round] = "merged:" + experiment::merge_cluster(scan)
                                         .to_string();
      } catch (const IoError& e) {
        if (!conflict && !drop_point) {
          fs::remove_all(dir, ec);
          return violation(std::string("clean directory failed to "
                                       "merge: ") +
                           e.what());
        }
        outcome[round] = std::string("io-error:") + e.what();
      } catch (const std::exception& e) {
        fs::remove_all(dir, ec);
        return violation(std::string("non-IoError escaped the merge: ") +
                         e.what());
      }
    }
    fs::remove_all(dir, ec);
    if (outcome[0] != outcome[1]) {
      return violation("re-scan of an unchanged directory changed the "
                       "outcome");
    }
    if (!conflict && !drop_point &&
        outcome[0] != "merged:" + expected) {
      return violation("merged table diverges from the reference rows");
    }
    if (drop_point && !conflict &&
        outcome[0].rfind("io-error:", 0) != 0) {
      return violation("merge of an incomplete directory succeeded");
    }
    return {};
  }
};

// ---------------------------------------------------------------------------
// Oracles 7-9: reader robustness.

/// Outcome of a guarded parse, recorded without allocating (once the
/// allocation budget has tripped, *any* heap use inside the guard scope
/// would itself throw bad_alloc).
struct GuardedParse {
  enum Outcome { kAccepted, kRejected, kAllocBlowup, kUnexpected };
  Outcome outcome = kAccepted;
  std::size_t records = 0;
  std::size_t allocated = 0;
  char what[256] = {};
};

class ReaderOracleBase : public Oracle {
 public:
  void add_seed(std::vector<std::uint8_t> seed) override {
    seeds_.push_back(std::move(seed));
  }

 protected:
  /// Picks a corpus seed to mutate (when any were supplied), otherwise
  /// defers to the oracle's synthesizer.
  std::vector<std::uint8_t> pick_base(Rng& rng) {
    if (!seeds_.empty() && rng.bernoulli(0.5)) {
      return seeds_[rng.uniform_u64(seeds_.size())];
    }
    return synthesize(rng);
  }

  virtual std::vector<std::uint8_t> synthesize(Rng& rng) = 0;

  template <typename ParseFn>
  static GuardedParse guarded_parse(ParseFn&& parse) {
    GuardedParse result;
    AllocationGuard guard(kReaderAllocBudget);
    try {
      result.records = parse();
      result.outcome = GuardedParse::kAccepted;
    } catch (const IoError&) {
      result.outcome = GuardedParse::kRejected;
    } catch (const std::bad_alloc&) {
      result.outcome = GuardedParse::kAllocBlowup;
    } catch (const std::exception& e) {
      result.outcome = GuardedParse::kUnexpected;
      std::strncpy(result.what, e.what(), sizeof(result.what) - 1);
    }
    result.allocated = guard.allocated_bytes();
    return result;
  }

  static OracleResult robustness_verdict(const GuardedParse& parse,
                                         std::size_t payload_bytes,
                                         std::size_t record_cap) {
    switch (parse.outcome) {
      case GuardedParse::kAllocBlowup:
        return violation("reader allocated past the " +
                           std::to_string(kReaderAllocBudget >> 20) +
                           " MiB budget on a " +
                           std::to_string(payload_bytes) +
                           "-byte input (unbounded header-driven "
                           "allocation)");
      case GuardedParse::kUnexpected:
        return violation(std::string("reader threw a non-IoError "
                                       "exception: ") +
                           parse.what);
      case GuardedParse::kAccepted:
        if (parse.records > record_cap) {
          return violation("reader yielded " +
                             std::to_string(parse.records) +
                             " records from " +
                             std::to_string(payload_bytes) +
                             " bytes — more than the input can encode");
        }
        return {};
      case GuardedParse::kRejected:
        return {};
    }
    return {};
  }

  std::vector<std::vector<std::uint8_t>> seeds_;
};

class PcapReaderOracle final : public ReaderOracleBase {
 public:
  std::string_view name() const override { return "reader_pcap"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    std::vector<std::uint8_t> base;
    if (rng.bernoulli(0.2)) {
      // Directly probe the length-bound arithmetic with boundary headers.
      constexpr std::uint32_t kLens[] = {0,          1,          65535,
                                         65536,      (1u << 20), (1u << 20) + 1,
                                         0x7fffffff, 0xfff00000, 0xfffffff0,
                                         0xffffffff};
      base = crafted_pcap_record(
          kLens[rng.uniform_u64(std::size(kLens))],
          kLens[rng.uniform_u64(std::size(kLens))],
          static_cast<std::uint32_t>(rng.uniform_u64(2'000'000'000)));
    } else {
      base = pick_base(rng);
    }
    if (rng.bernoulli(0.85)) {
      base = mutate_bytes(std::move(base), rng,
                          1 + static_cast<int>(rng.uniform_u64(8)));
    }
    return base;
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    if (payload.size() > (std::size_t{4} << 20)) {
      return skip_case();
    }
    std::istringstream in(std::string(payload.begin(), payload.end()),
                          std::ios::binary);
    const auto parse = guarded_parse([&] {
      pcap::PcapReader reader(in);
      std::size_t records = 0;
      while (reader.next()) ++records;
      return records;
    });
    return robustness_verdict(parse, payload.size(),
                              payload.size() / pcap::kRecordHeaderBytes + 1);
  }

 protected:
  std::vector<std::uint8_t> synthesize(Rng& rng) override {
    return synthesize_pcap_seed(rng);
  }
};

class PcapngReaderOracle final : public ReaderOracleBase {
 public:
  std::string_view name() const override { return "reader_pcapng"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    auto base = pick_base(rng);
    if (rng.bernoulli(0.85)) {
      base = mutate_bytes(std::move(base), rng,
                          1 + static_cast<int>(rng.uniform_u64(8)));
    }
    return base;
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    if (payload.size() > (std::size_t{4} << 20)) {
      return skip_case();
    }
    std::istringstream in(std::string(payload.begin(), payload.end()),
                          std::ios::binary);
    const auto parse = guarded_parse([&] {
      pcap::PcapngReader reader(in);
      std::size_t records = 0;
      while (reader.next()) ++records;
      return records;
    });
    // The smallest packet-bearing block is 12 bytes of framing.
    return robustness_verdict(parse, payload.size(), payload.size() / 12 + 1);
  }

 protected:
  std::vector<std::uint8_t> synthesize(Rng& rng) override {
    return synthesize_pcapng_seed(rng);
  }
};

// ---------------------------------------------------------------------------
// Oracle 9: reader_flowtext — grammar differential.
//
// The spec parser below is an independent hand-rolled implementation of the
// documented flow-text grammar (header prefix, 3 whitespace-separated
// tokens per line, int64 timestamp with optional leading '-', unsigned
// 32-bit size with no sign, chaff flag exactly "0"/"1", comments and blank
// lines skipped, timestamps non-decreasing).  read_flow_text must agree
// with it on accept/reject and on the packet count — historically it
// ignored trailing tokens and wrapped signed sizes through istream
// extraction, which this oracle flags mechanically.

bool spec_is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

std::vector<std::string> spec_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && spec_is_space(line[i])) ++i;
    std::size_t start = i;
    while (i < line.size() && !spec_is_space(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool spec_parse_i64(const std::string& token, std::int64_t& out) {
  std::size_t i = 0;
  const bool negative = !token.empty() && token[0] == '-';
  if (negative) i = 1;
  if (i >= token.size()) return false;
  const std::uint64_t limit =
      negative ? 9223372036854775808ULL : 9223372036854775807ULL;
  std::uint64_t magnitude = 0;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    const auto digit = static_cast<std::uint64_t>(token[i] - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
  }
  out = negative ? -static_cast<std::int64_t>(magnitude - 1) - 1
                 : static_cast<std::int64_t>(magnitude);
  return true;
}

bool spec_parse_u32(const std::string& token) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffULL) return false;
  }
  return true;
}

/// Accept/reject plus accepted packet count, per the grammar alone.
std::optional<std::size_t> spec_parse_flow_text(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  constexpr std::string_view kMagic = "# sscor-flow v1";
  if (lines.empty() ||
      std::string_view(lines[0]).substr(0, kMagic.size()) != kMagic) {
    return std::nullopt;
  }
  std::size_t packets = 0;
  bool have_previous = false;
  std::int64_t previous_ts = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty() || line[0] == '#') continue;
    const auto tokens = spec_tokens(line);
    if (tokens.size() != 3) return std::nullopt;
    std::int64_t ts = 0;
    if (!spec_parse_i64(tokens[0], ts)) return std::nullopt;
    if (!spec_parse_u32(tokens[1])) return std::nullopt;
    if (tokens[2] != "0" && tokens[2] != "1") return std::nullopt;
    if (have_previous && ts < previous_ts) return std::nullopt;
    previous_ts = ts;
    have_previous = true;
    ++packets;
  }
  return packets;
}

class FlowTextReaderOracle final : public ReaderOracleBase {
 public:
  std::string_view name() const override { return "reader_flowtext"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    auto base = pick_base(rng);
    if (rng.bernoulli(0.8)) {
      // Token-level edits keep most of the line structure intact, probing
      // the grammar corner cases rather than just shredding the header.
      std::string text(base.begin(), base.end());
      text = mutate_text_tokens(std::move(text), rng,
                                1 + static_cast<int>(rng.uniform_u64(6)));
      base.assign(text.begin(), text.end());
    } else {
      base = mutate_bytes(std::move(base), rng,
                          1 + static_cast<int>(rng.uniform_u64(6)));
    }
    return base;
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    if (payload.size() > (std::size_t{4} << 20)) {
      return skip_case();
    }
    const std::string text(payload.begin(), payload.end());
    const auto expected = spec_parse_flow_text(text);
    std::istringstream in(text);
    const auto parse = guarded_parse([&] {
      const Flow flow = read_flow_text(in);
      return flow.size();
    });
    if (parse.outcome == GuardedParse::kAllocBlowup ||
        parse.outcome == GuardedParse::kUnexpected) {
      return robustness_verdict(parse, payload.size(), payload.size());
    }
    const bool accepted = parse.outcome == GuardedParse::kAccepted;
    if (accepted && !expected) {
      return violation("read_flow_text accepted an input the grammar "
                         "rejects (trailing tokens, signed size, or bad "
                         "token shape survive parsing)");
    }
    if (!accepted && expected) {
      return violation("read_flow_text rejected a well-formed flow of " +
                         std::to_string(*expected) + " packets");
    }
    if (accepted && expected && parse.records != *expected) {
      return violation("read_flow_text parsed " +
                         std::to_string(parse.records) +
                         " packets where the grammar counts " +
                         std::to_string(*expected));
    }
    return {};
  }

 protected:
  std::vector<std::uint8_t> synthesize(Rng& rng) override {
    return synthesize_flowtext_seed(rng);
  }
};

// ---------------------------------------------------------------------------
// Oracle 10: stream_parity.

/// stream_parity: the streaming engine is the batch pipeline, incrementally.
/// For a generated capture — the pipeline's downstream flow plus
/// constant-delay decoy copies, merged in timestamp order — StreamEngine
/// with early exits disabled must reproduce Correlator::correlate byte for
/// byte for every (flow, upstream) pair, at shard count 1 and at a
/// payload-chosen shard count, in identical verdict order.  With early
/// exits enabled the decisions must still agree, and every early
/// rejection's cost must equal the stream prefix it inspected.
class StreamParityOracle final : public Oracle {
 public:
  std::string_view name() const override { return "stream_parity"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    return generate_pipeline_case(
        rng, /*max_bits=*/4,
        {{"algo", static_cast<std::int64_t>(rng.uniform_u64(4))},
         {"shards", 1 + static_cast<std::int64_t>(rng.uniform_u64(8))},
         {"decoys", static_cast<std::int64_t>(rng.uniform_u64(3))},
         {"batch", 1 + static_cast<std::int64_t>(rng.uniform_u64(128))},
         {"early", rng.bernoulli(0.5) ? 1 : 0}});
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    const auto parsed = parse_case(payload);
    if (!parsed) return skip_case();
    const auto pipe = build_pipeline(*parsed);
    if (!pipe) return skip_case();
    const Algorithm algo =
        kResilienceTiers[get_clamped(*parsed, "algo", 0, 0, 3)];
    const auto shards = static_cast<std::size_t>(
        get_clamped(*parsed, "shards", 1, 1, 8));
    const auto decoys = static_cast<std::size_t>(
        get_clamped(*parsed, "decoys", 0, 0, 4));
    const auto batch_size = static_cast<std::size_t>(
        get_clamped(*parsed, "batch", 16, 1, 1024));
    const bool try_early = get_clamped(*parsed, "early", 0, 0, 1) != 0;

    // The capture: the pipeline's downstream plus delayed decoy copies,
    // each under its own five-tuple, merged in timestamp order.
    std::vector<Flow> flows;
    flows.push_back(pipe->downstream);
    for (std::size_t d = 0; d < decoys; ++d) {
      flows.push_back(
          traffic::ConstantDelay(millis(static_cast<std::int64_t>(37 * (d + 1))))
              .apply(pipe->downstream));
    }
    std::vector<net::FiveTuple> tuples;
    std::vector<stream::StreamPacket> packets;
    for (std::size_t k = 0; k < flows.size(); ++k) {
      tuples.push_back(experiment::stream_corpus_tuple(k));
      for (const PacketRecord& packet : flows[k].packets()) {
        packets.push_back(stream::StreamPacket{tuples[k], packet});
      }
    }
    std::stable_sort(packets.begin(), packets.end(),
                     [](const stream::StreamPacket& a,
                        const stream::StreamPacket& b) {
                       return a.packet.timestamp < b.packet.timestamp;
                     });

    std::vector<CorrelationResult> batch;
    const Correlator correlator(pipe->config, algo);
    for (const Flow& flow : flows) {
      batch.push_back(correlator.correlate(pipe->watermarked, flow));
    }

    const auto run_stream =
        [&](std::size_t shard_count,
            bool early_exit) -> std::vector<stream::StreamVerdict> {
      stream::StreamOptions options;
      options.algorithm = algo;
      options.table.shards = shard_count;
      options.early_exit = early_exit;
      options.batch_size = batch_size;
      stream::StreamEngine engine({pipe->watermarked}, pipe->config,
                                  options);
      for (const stream::StreamPacket& packet : packets) {
        engine.ingest(packet);
      }
      engine.finish();
      return engine.drain_verdicts();
    };

    // Exact parity at shard counts 1 and N with early exits off.
    std::vector<stream::StreamVerdict> reference;
    for (const std::size_t shard_count :
         {std::size_t{1}, shards}) {
      std::vector<stream::StreamVerdict> verdicts;
      try {
        verdicts = run_stream(shard_count, false);
      } catch (const std::exception& e) {
        return violation("stream engine threw at " +
                         std::to_string(shard_count) + " shards: " +
                         e.what());
      }
      if (verdicts.size() != flows.size()) {
        return violation("stream engine produced " +
                         std::to_string(verdicts.size()) +
                         " verdicts for " + std::to_string(flows.size()) +
                         " flows at " + std::to_string(shard_count) +
                         " shards");
      }
      for (const stream::StreamVerdict& v : verdicts) {
        const auto it = std::find(tuples.begin(), tuples.end(), v.tuple);
        if (it == tuples.end()) {
          return violation("verdict for unknown tuple " +
                           v.tuple.to_string());
        }
        const auto flow_index =
            static_cast<std::size_t>(it - tuples.begin());
        if (auto m = result_mismatch(
                "stream verdict at " + std::to_string(shard_count) +
                    " shards diverges from batch for flow " +
                    std::to_string(flow_index),
                v.result, batch[flow_index]);
            !m.empty()) {
          return violation(std::move(m));
        }
        const stream::VerdictKind want_kind =
            batch[flow_index].correlated ? stream::VerdictKind::kPositive
                                         : stream::VerdictKind::kNegative;
        if (v.kind != want_kind || v.early) {
          return violation(
              "stream verdict kind/early inconsistent with batch "
              "decision for flow " +
              std::to_string(flow_index));
        }
      }
      if (reference.empty()) {
        reference = std::move(verdicts);
      } else {
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          if (verdicts[i].tuple != reference[i].tuple ||
              verdicts[i].flow_seq != reference[i].flow_seq ||
              verdicts[i].upstream != reference[i].upstream) {
            return violation("verdict order differs between 1 and " +
                             std::to_string(shards) + " shards at index " +
                             std::to_string(i));
          }
        }
      }
    }

    // Decision agreement with early exits on.
    if (try_early) {
      std::vector<stream::StreamVerdict> verdicts;
      try {
        verdicts = run_stream(shards, true);
      } catch (const std::exception& e) {
        return violation(std::string("stream engine threw with early "
                                     "exits on: ") +
                         e.what());
      }
      if (verdicts.size() != flows.size()) {
        return violation("early-exit run produced " +
                         std::to_string(verdicts.size()) +
                         " verdicts for " + std::to_string(flows.size()) +
                         " flows");
      }
      for (const stream::StreamVerdict& v : verdicts) {
        const auto it = std::find(tuples.begin(), tuples.end(), v.tuple);
        if (it == tuples.end()) {
          return violation("early-exit verdict for unknown tuple " +
                           v.tuple.to_string());
        }
        const auto flow_index =
            static_cast<std::size_t>(it - tuples.begin());
        if (v.result.correlated != batch[flow_index].correlated) {
          return violation("early-exit decision diverges from batch for "
                           "flow " +
                           std::to_string(flow_index));
        }
        if (v.early && v.result.cost != v.packets_seen) {
          return violation("early rejection cost " +
                           std::to_string(v.result.cost) +
                           " != packets seen " +
                           std::to_string(v.packets_seen));
        }
      }
    }
    return {};
  }
};

// ---------------------------------------------------------------------------
// Oracle 13: frame_parser.

/// frame_parser: the `sscor-stream v1` parser's robustness contract on
/// arbitrary bytes.  For any payload (well-formed frame streams, mutated
/// streams, raw garbage):
///
///   * parsing never throws or crashes;
///   * chunking independence: feeding the bytes whole and feeding them in
///     payload-derived random chunks yield identical frame sequences AND
///     identical resync/quarantine counters;
///   * byte conservation: quarantined bytes + bytes consumed by parsed
///     frames never exceed the input, and the unconsumed remainder is
///     bounded by one maximal frame (the buffer bound);
///   * re-encode idempotence: every parsed frame re-encodes to bytes that
///     reparse to exactly that frame with zero quarantine;
///   * packet round-trip: a kPacket payload that decodes re-encodes to the
///     identical frame bytes.
class FrameParserOracle final : public Oracle {
 public:
  std::string_view name() const override { return "frame_parser"; }

  std::vector<std::uint8_t> generate(Rng& rng) override {
    std::string stream;
    if (rng.bernoulli(0.9)) stream += stream::encode_hello();
    const std::size_t frames = 1 + rng.uniform_u64(24);
    for (std::size_t i = 0; i < frames; ++i) {
      switch (rng.uniform_u64(6)) {
        case 0:
          stream += stream::encode_heartbeat();
          break;
        case 1: {
          // Raw garbage between frames: the resync path.
          const std::size_t n = 1 + rng.uniform_u64(40);
          for (std::size_t j = 0; j < n; ++j) {
            stream += static_cast<char>(rng.uniform_u64(256));
          }
          break;
        }
        default: {
          stream::StreamPacket packet;
          packet.tuple = experiment::stream_corpus_tuple(
              static_cast<std::size_t>(rng.uniform_u64(8)));
          packet.packet.timestamp =
              static_cast<TimeUs>(rng.uniform_u64(1'000'000'000));
          packet.packet.size =
              static_cast<std::uint32_t>(rng.uniform_u64(1500));
          packet.packet.is_chaff = rng.bernoulli(0.3);
          stream += stream::encode_packet_frame(packet);
          break;
        }
      }
    }
    if (rng.bernoulli(0.5)) stream += stream::encode_end();
    std::vector<std::uint8_t> bytes(stream.begin(), stream.end());
    if (rng.bernoulli(0.7)) {
      bytes = mutate_bytes(std::move(bytes), rng,
                           1 + static_cast<int>(rng.uniform_u64(8)));
    }
    return bytes;
  }

  OracleResult check(const std::vector<std::uint8_t>& payload) override {
    if (payload.size() > (std::size_t{64} << 10)) return skip_case();
    const std::string text(payload.begin(), payload.end());
    try {
      // Whole-input parse: the reference.
      stream::FrameParser whole;
      whole.feed(text);
      std::vector<stream::Frame> reference;
      while (auto frame = whole.next()) reference.push_back(*frame);

      // Chunked parse with payload-derived split points.
      std::uint64_t seed = 0xcbf29ce484222325ull;
      for (const std::uint8_t b : payload) {
        seed = (seed ^ b) * 0x100000001b3ull;
      }
      Rng chunk_rng(seed);
      stream::FrameParser chunked;
      std::vector<stream::Frame> rechunked;
      std::size_t pos = 0;
      while (pos < text.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + chunk_rng.uniform_u64(61), text.size() - pos);
        chunked.feed(std::string_view(text).substr(pos, n));
        pos += n;
        while (auto frame = chunked.next()) rechunked.push_back(*frame);
      }

      if (reference.size() != rechunked.size()) {
        return violation("chunked parse yielded " +
                         std::to_string(rechunked.size()) + " frames, whole "
                         "parse " + std::to_string(reference.size()));
      }
      for (std::size_t i = 0; i < reference.size(); ++i) {
        if (reference[i].type != rechunked[i].type ||
            reference[i].payload != rechunked[i].payload) {
          return violation("frame " + std::to_string(i) +
                           " differs between whole and chunked parse");
        }
      }
      if (whole.frames_parsed() != chunked.frames_parsed() ||
          whole.resyncs() != chunked.resyncs() ||
          whole.bytes_quarantined() != chunked.bytes_quarantined()) {
        return violation(
            "parser counters depend on chunking: whole (" +
            std::to_string(whole.frames_parsed()) + ", " +
            std::to_string(whole.resyncs()) + ", " +
            std::to_string(whole.bytes_quarantined()) + ") vs chunked (" +
            std::to_string(chunked.frames_parsed()) + ", " +
            std::to_string(chunked.resyncs()) + ", " +
            std::to_string(chunked.bytes_quarantined()) + ")");
      }

      // Byte conservation and the buffer bound.
      std::uint64_t frame_bytes = 0;
      for (const stream::Frame& frame : reference) {
        frame_bytes += stream::kFrameHeaderBytes + frame.payload.size();
      }
      if (whole.bytes_quarantined() + frame_bytes > text.size()) {
        return violation("parser accounted for more bytes than fed: " +
                         std::to_string(whole.bytes_quarantined()) +
                         " quarantined + " + std::to_string(frame_bytes) +
                         " framed > " + std::to_string(text.size()));
      }
      const std::uint64_t leftover =
          text.size() - whole.bytes_quarantined() - frame_bytes;
      if (leftover >= stream::kFrameHeaderBytes + stream::kMaxFramePayload) {
        return violation("parser buffered " + std::to_string(leftover) +
                         " unconsumed bytes, beyond the one-frame bound");
      }

      // Re-encode idempotence (and the packet payload round-trip).
      for (const stream::Frame& frame : reference) {
        const std::string encoded =
            stream::encode_frame(frame.type, frame.payload);
        stream::FrameParser reparse;
        reparse.feed(encoded);
        const auto back = reparse.next();
        if (!back || back->type != frame.type ||
            back->payload != frame.payload || reparse.resyncs() != 0 ||
            reparse.bytes_quarantined() != 0 || reparse.next()) {
          return violation("re-encoded frame did not reparse to itself");
        }
        if (frame.type == stream::FrameType::kPacket) {
          stream::StreamPacket decoded;
          if (stream::decode_packet_payload(frame.payload, decoded) &&
              stream::encode_packet_frame(decoded) != encoded) {
            return violation(
                "packet payload decode/encode round-trip diverged");
          }
        }
      }
    } catch (const std::exception& e) {
      return violation(std::string("frame parser threw: ") + e.what());
    }
    return {};
  }
};

}  // namespace

std::vector<std::unique_ptr<Oracle>> make_default_oracles() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(std::make_unique<QimRoundtripOracle>());
  oracles.push_back(std::make_unique<DifferentialOracle>());
  oracles.push_back(std::make_unique<BatchParityOracle>());
  oracles.push_back(std::make_unique<ResilientParityOracle>());
  oracles.push_back(std::make_unique<ChaosDecodeOracle>());
  oracles.push_back(std::make_unique<ChaosSweepOracle>());
  oracles.push_back(std::make_unique<JournalMergeOracle>());
  oracles.push_back(std::make_unique<PcapReaderOracle>());
  oracles.push_back(std::make_unique<PcapngReaderOracle>());
  oracles.push_back(std::make_unique<FlowTextReaderOracle>());
  oracles.push_back(std::make_unique<StreamParityOracle>());
  oracles.push_back(std::make_unique<FrameParserOracle>());
  return oracles;
}

std::vector<RegressionCase> make_regression_cases() {
  std::vector<RegressionCase> cases;

  {
    // The quantization cell-boundary off-by-one: every pair IPD sits at
    // exactly centre + step/2 of an even (parity-0) cell, the watermark is
    // all zeros, and the step is even.  The buggy embedder kept those IPDs
    // (believing they decode to the even cell) while the decoder rounds
    // them up into the odd cell, flipping every bit.
    const DurationUs step = millis(400);
    std::vector<TimeUs> timestamps;
    for (std::size_t i = 0; i < 40; ++i) {
      timestamps.push_back(static_cast<TimeUs>(i + 1) *
                           (2 * step + step / 2));
    }
    const Flow flow =
        Flow::from_timestamps(timestamps, "regress-qim-boundary");
    cases.push_back({"regress-qim-boundary", "qim_roundtrip",
                     serialize_case({{"step", step},
                                     {"bits", 8},
                                     {"redundancy", 1},
                                     {"key", 42},
                                     {"wm", 0}},
                                    flow)});
  }

  // A 40-byte capture whose header claims a ~4 GiB record: snaplen
  // 0xfff00000 keeps snaplen + 65535 below 2^32 (no wrap), so the old
  // plausibility check admitted incl_len 0xfff00000 and sized the record
  // buffer straight from the header.
  cases.push_back({"regress-pcap-giant-record", "reader_pcap",
                   crafted_pcap_record(0xfff00000u, 0xfff00000u, 0)});

  // A lone interface-description block with no section header.  The reader
  // used to report this malformed file through require() — i.e. as an
  // InvalidArgument contract violation instead of an IoError — which the
  // robustness oracle flags as a non-IoError escape.
  cases.push_back({"regress-pcapng-no-shb", "reader_pcapng",
                   {0x01, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00}});

  // SHB + IDB + an enhanced packet whose 64-bit tick counter is all-ones:
  // at the default microsecond resolution the seconds * 1'000'000 multiply
  // used to overflow TimeUs (signed int64) — undefined behaviour, visible
  // under -fsanitize=undefined.  The fixed reader rejects it as an IoError.
  cases.push_back(
      {"regress-pcapng-huge-timestamp", "reader_pcapng",
       {// SHB: type, length 28, byte-order magic, version 1.0,
        // section length -1, trailing length.
        0x0a, 0x0d, 0x0d, 0x0a, 0x1c, 0x00, 0x00, 0x00,
        0x4d, 0x3c, 0x2b, 0x1a, 0x01, 0x00, 0x00, 0x00,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0x1c, 0x00, 0x00, 0x00,
        // IDB: type, length 20, link type 101 (raw IP), snaplen 0.
        0x01, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00,
        0x65, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x14, 0x00, 0x00, 0x00,
        // EPB: type, length 32, interface 0, timestamp 0xffffffffffffffff,
        // captured 0, original 1.
        0x06, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00}});

  {
    const std::string text = "# sscor-flow v1 regress\n1000 64 0 junk\n";
    cases.push_back({"regress-flowtext-trailing", "reader_flowtext",
                     std::vector<std::uint8_t>(text.begin(), text.end())});
  }
  {
    const std::string text = "# sscor-flow v1 regress\n1000 -64 0\n";
    cases.push_back({"regress-flowtext-negative", "reader_flowtext",
                     std::vector<std::uint8_t>(text.begin(), text.end())});
  }
  return cases;
}

}  // namespace sscor::fuzz
