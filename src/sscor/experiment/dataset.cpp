#include "sscor/experiment/dataset.hpp"

#include <cmath>
#include <memory>

#include "sscor/traffic/chaff.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/traffic/perturbation.hpp"
#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/rng.hpp"

namespace sscor::experiment {
namespace {

std::unique_ptr<traffic::FlowGenerator> make_generator(Corpus corpus) {
  switch (corpus) {
    case Corpus::kInteractive:
      return std::make_unique<traffic::InteractiveSessionModel>();
    case Corpus::kTcplib:
      return std::make_unique<traffic::TcplibTelnetModel>();
  }
  throw InternalError("unhandled corpus");
}

}  // namespace

std::string to_string(Corpus corpus) {
  switch (corpus) {
    case Corpus::kInteractive:
      return "interactive (Bell-Labs substitute)";
    case Corpus::kTcplib:
      return "tcplib telnet (synthetic)";
  }
  return "unknown";
}

Dataset Dataset::build(const ExperimentConfig& config) {
  const metrics::ScopedTimer timer("dataset.build");
  metrics::counter("dataset.flows_generated").add(config.flows);
  Dataset dataset;
  dataset.config_ = config;
  dataset.flows_.reserve(config.flows);
  const auto generator = make_generator(config.corpus);

  for (std::size_t i = 0; i < config.flows; ++i) {
    const std::uint64_t flow_seed = mix_seeds(config.master_seed, i);
    // Flows all start near t=0 (with sub-second jitter) so that any two
    // overlap in time, as concurrently captured traces do.
    Rng jitter_rng(mix_seeds(flow_seed, 0xb00f));
    const TimeUs start = jitter_rng.uniform_duration(millis(900));
    Flow raw = generator->generate(config.packets_per_flow, start, flow_seed);
    raw.set_id("trace-" + std::to_string(i));

    Rng wm_rng(mix_seeds(flow_seed, 0x3a7e));
    const Watermark watermark =
        Watermark::random(config.watermark.bits, wm_rng);
    // Independent per-flow watermarking key (the location secret).
    const Embedder embedder(config.watermark, mix_seeds(flow_seed, 0x6b65));
    dataset.flows_.push_back(embedder.embed(raw, watermark));
  }
  return dataset;
}

Flow Dataset::downstream(std::size_t i, DurationUs max_perturbation,
                         double chaff_rate) const {
  require(i < flows_.size(), "flow index out of range");
  static metrics::Counter& generated =
      metrics::counter("dataset.downstream_generated");
  generated.add();
  const std::uint64_t flow_seed = mix_seeds(config_.master_seed, i);
  const auto pert_tag = static_cast<std::uint64_t>(max_perturbation);
  const auto chaff_tag =
      static_cast<std::uint64_t>(std::llround(chaff_rate * 1000.0));
  const std::uint64_t point_seed =
      mix_seeds(flow_seed, mix_seeds(pert_tag, chaff_tag));

  const traffic::UniformPerturber perturber(max_perturbation,
                                            mix_seeds(point_seed, 1));
  Flow out = perturber.apply(flows_[i].flow);
  if (chaff_rate > 0.0) {
    const traffic::PoissonChaffInjector chaff(chaff_rate,
                                              mix_seeds(point_seed, 2));
    out = chaff.apply(out);
  }
  return out;
}

std::vector<Flow> Dataset::downstream_all(DurationUs max_perturbation,
                                          double chaff_rate) const {
  std::vector<Flow> out;
  out.reserve(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    out.push_back(downstream(i, max_perturbation, chaff_rate));
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> Dataset::sample_fp_pairs(
    std::size_t count) const {
  require(flows_.size() >= 2, "need at least two flows for FP pairs");
  const std::size_t all = flows_.size() * (flows_.size() - 1);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  if (count >= all) {
    pairs.reserve(all);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      for (std::size_t j = 0; j < flows_.size(); ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    return pairs;
  }
  Rng rng(mix_seeds(config_.master_seed, 0xfa1e));
  pairs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto i =
        static_cast<std::size_t>(rng.uniform_u64(flows_.size()));
    auto j = static_cast<std::size_t>(rng.uniform_u64(flows_.size() - 1));
    if (j >= i) ++j;
    pairs.emplace_back(i, j);
  }
  return pairs;
}

}  // namespace sscor::experiment
