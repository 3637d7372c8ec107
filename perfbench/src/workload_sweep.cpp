// The `sweep` workload: the researcher's time-to-figure.  run_sweep at
// paper scale over the fig03 grid (detection rate vs chaff) and the fig05
// grid (false-positive rate vs chaff), writing both CSVs, single-threaded.
//
// The traced run re-drives the same grids through the layer entry points
// (Dataset, MatchContext, each detector) and times each call, then
// cross-checks the rates it computes against the reference CSVs and its
// packet-access total against the untraced run's counter.

#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common.hpp"
#include "sscor/experiment/dataset.hpp"
#include "sscor/experiment/evaluation.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/util/metrics.hpp"

namespace perfbench {
namespace {

using namespace sscor;
using namespace sscor::experiment;

constexpr std::size_t kDetectors = 5;
/// paper_detectors' line-up, in order, with the layer each belongs to.
constexpr std::array<const char*, kDetectors> kDetectorNames = {
    "Greedy", "Greedy+", "Greedy*", "BasicWM", "Zhang"};
constexpr std::array<const char*, kDetectors> kDetectorLayers = {
    "correlation.greedy", "correlation.greedy_plus",
    "correlation.greedy_star", "baselines.basic_wm", "baselines.zhang"};

struct Figure {
  const char* id;
  experiment::Metric metric;
};
constexpr std::array<Figure, 2> kFigures = {
    Figure{"fig03", experiment::Metric::kDetectionRate},
    Figure{"fig05", experiment::Metric::kFalsePositiveRate}};

ExperimentConfig sweep_config(const Options& options) {
  ExperimentConfig config;  // paper scale: 91 flows x 1000 packets
  if (options.tiny) {
    config.flows = 6;
    config.packets_per_flow = 500;
    config.fp_pairs = 20;
  }
  config.threads = 1;
  return config;
}

SweepSpec spec_for(const Figure& figure) {
  SweepSpec spec;
  spec.metric = figure.metric;
  spec.axis = SweepAxis::kChaffRate;
  spec.fixed_delay = kFig3FixedDelay;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string path_in(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

/// Compares a CSV written into the work dir byte for byte with the stored
/// reference.
void check_csv(const Options& options, const std::string& written_name,
               const std::string& name, Result& result) {
  const std::string written = path_in(options.work_dir, written_name);
  const std::string reference = read_file(path_in(options.reference_dir, name));
  if (reference.empty()) {
    result.fail("missing reference CSV " + name);
  } else if (read_file(written) != reference) {
    result.fail(name + " differs from the reference CSV");
  }
}

struct SweepRun {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::uint64_t packets_accessed = 0;
  std::uint64_t detections = 0;
  std::uint64_t points = 0;
};

/// One untraced time-to-figure: both sweeps and both CSVs.
SweepRun sweep_once(const Options& options, const ExperimentConfig& config,
                    Result& result) {
  metrics::Counter& accessed = metrics::counter("eval.packets_accessed");
  metrics::Counter& detections = metrics::counter("eval.detections_run");
  const std::uint64_t accessed_before = accessed.value();
  const std::uint64_t detections_before = detections.value();
  SweepRun run;
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  std::vector<TextTable> tables;
  for (const Figure& figure : kFigures) {
    tables.push_back(run_sweep(config, spec_for(figure)));
    tables.back().write_csv(
        path_in(options.work_dir, std::string(figure.id) + ".csv"));
  }
  run.seconds = seconds_between(start, Clock::now());
  run.cpu_s = process_cpu_seconds() - cpu_start;
  run.packets_accessed = accessed.value() - accessed_before;
  run.detections = detections.value() - detections_before;
  for (std::size_t f = 0; f < kFigures.size(); ++f) {
    run.points += tables[f].rows();
    const std::string name = std::string(kFigures[f].id) + ".csv";
    check_csv(options, name, name, result);
  }
  return run;
}

/// Per-layer accumulators of the traced re-drive.
struct Layers {
  double dataset_build_s = 0.0;
  double downstream_s = 0.0;
  double fp_sample_s = 0.0;
  double context_build_s = 0.0;
  std::uint64_t context_builds = 0;
  std::array<double, kDetectors> detect_s{};
  std::array<std::uint64_t, kDetectors> packets_accessed{};
  std::uint64_t detections = 0;
  std::uint64_t points = 0;

  double accounted() const {
    double total = dataset_build_s + downstream_s + fp_sample_s +
                   context_build_s;
    for (const double s : detect_s) total += s;
    return total;
  }
};

template <typename F>
auto timed(double& total, F&& call) {
  const auto start = Clock::now();
  auto value = call();
  total += seconds_between(start, Clock::now());
  return value;
}

/// Re-drives one figure's grid exactly as run_sweep/evaluate_point do, but
/// through the layer entry points so each call can be timed.
TextTable redrive_figure(const ExperimentConfig& config, const Figure& figure,
                         Layers& layers) {
  const SweepSpec spec = spec_for(figure);
  const bool detection = figure.metric == experiment::Metric::kDetectionRate;
  const Dataset dataset =
      timed(layers.dataset_build_s, [&] { return Dataset::build(config); });

  std::vector<std::string> header{"chaff_rate_pps"};
  for (const auto& d : paper_detectors(config, spec.fixed_delay)) {
    header.push_back(d->name());
  }
  TextTable table(header);
  for (const double chaff : kChaffRates) {
    const auto detectors = paper_detectors(config, spec.fixed_delay);
    if (detectors.size() != kDetectors) {
      throw std::runtime_error("unexpected detector line-up size");
    }
    for (std::size_t d = 0; d < kDetectors; ++d) {
      if (detectors[d]->name() != kDetectorNames[d]) {
        throw std::runtime_error("unexpected detector " +
                                 detectors[d]->name());
      }
    }
    const std::vector<Flow> downstream = timed(layers.downstream_s, [&] {
      return dataset.downstream_all(spec.fixed_delay, chaff);
    });
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    if (detection) {
      for (std::size_t i = 0; i < dataset.size(); ++i) pairs.emplace_back(i, i);
    } else {
      pairs = timed(layers.fp_sample_s,
                    [&] { return dataset.sample_fp_pairs(config.fp_pairs); });
    }

    std::array<std::size_t, kDetectors> positives{};
    for (const auto& [i, j] : pairs) {
      const WatermarkedFlow& up = dataset.upstream(i);
      const Flow& down = downstream[j];
      std::vector<std::pair<MatchContextKey, MatchContext>> contexts;
      for (std::size_t d = 0; d < kDetectors; ++d) {
        const auto key = detectors[d]->shared_match_key();
        const MatchContext* context = nullptr;
        if (key) {
          for (const auto& [k, ctx] : contexts) {
            if (k == *key) context = &ctx;
          }
          if (context == nullptr) {
            contexts.emplace_back(
                *key, timed(layers.context_build_s, [&] {
                  return MatchContext::build(up.flow, down, key->max_delay,
                                             key->size);
                }));
            ++layers.context_builds;
            context = &contexts.back().second;
          }
        }
        const DetectionOutcome outcome = timed(layers.detect_s[d], [&] {
          return detectors[d]->detect_with_context(up, down, context);
        });
        positives[d] += outcome.correlated ? 1 : 0;
        layers.packets_accessed[d] += outcome.cost;
        ++layers.detections;
      }
    }

    std::vector<std::string> row{TextTable::cell(chaff, 1)};
    for (std::size_t d = 0; d < kDetectors; ++d) {
      row.push_back(TextTable::cell(static_cast<double>(positives[d]) /
                                        static_cast<double>(pairs.size()),
                                    4));
    }
    table.add_row(std::move(row));
    ++layers.points;
  }
  return table;
}

}  // namespace

Result run_sweep_workload(const Options& options) {
  Result result;
  const ExperimentConfig config = sweep_config(options);
  result.note("flows", std::to_string(config.flows));
  result.note("packets_per_flow", std::to_string(config.packets_per_flow));
  result.note("fp_pairs", std::to_string(config.fp_pairs));
  result.note("master_seed", std::to_string(config.master_seed));
  result.note("sweep_threads", std::to_string(config.threads));
  result.note("grids", "[\"fig03\", \"fig05\"]");

  // Set-up: the dataset run_sweep builds before its first point, timed on
  // its own several times.
  std::vector<double> setup;
  for (int k = 0; k < 40; ++k) {
    const auto start = Clock::now();
    const Dataset dataset = Dataset::build(config);
    setup.push_back(seconds_between(start, Clock::now()));
    if (dataset.size() != config.flows) result.fail("dataset size mismatch");
  }

  if (!options.trace) {
    // One result is one time-to-figure.  Rate and CPU cost are totals over
    // the repetitions, so a host that speeds up or slows down during the
    // run moves them in proportion to the time it spent so.
    std::vector<double> figure_ms;
    double seconds = 0.0;
    double cpu_s = 0.0;
    double packets = 0.0;
    std::uint64_t packets_accessed = 0;
    const auto start = Clock::now();
    do {
      const SweepRun run = sweep_once(options, config, result);
      figure_ms.push_back(run.seconds * 1e3);
      seconds += run.seconds;
      cpu_s += run.cpu_s;
      // The sweep's input: every grid point replays the dataset's upstream
      // flows, flows x packets_per_flow packets.
      packets += static_cast<double>(config.flows * config.packets_per_flow *
                                     run.points);
      result.attempted += run.points;
      if (figure_ms.size() == 1) packets_accessed = run.packets_accessed;
      if (run.packets_accessed != packets_accessed) {
        result.fail("packets_accessed changed between repetitions");
      }
    } while (seconds_between(start, Clock::now()) < options.seconds ||
             figure_ms.size() < 2);
    result.note("repetitions", std::to_string(figure_ms.size()));
    result.note("pass_time_to_figure_ms", json_array(figure_ms));
    result.note("packets_accessed", std::to_string(packets_accessed));
    result.add("setup_s", median(setup), "s");
    result.add("latency_p50_ms", percentile(figure_ms, 0.50), "ms");
    result.add("latency_p95_ms", percentile(figure_ms, 0.95), "ms");
    result.add("cpu_us_per_packet", cpu_s * 1e6 / packets, "us");
    result.add("packets_per_s", packets / seconds, "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run: one untraced time-to-figure as the baseline, then
  // instrumented re-drives of the same grids for the rest of the run.
  const SweepRun baseline = sweep_once(options, config, result);
  result.attempted = baseline.points;
  std::vector<std::vector<Metric>> per_redrive;
  std::vector<double> unaccounted;
  const auto run_start = Clock::now();
  do {
    Layers layers;
    const auto start = Clock::now();
    for (const Figure& figure : kFigures) {
      const std::string name = std::string(figure.id) + "_traced.csv";
      redrive_figure(config, figure, layers)
          .write_csv(path_in(options.work_dir, name));
      check_csv(options, name, std::string(figure.id) + ".csv", result);
    }
    const double wall = seconds_between(start, Clock::now());
    result.attempted += layers.points;

    std::uint64_t accessed = 0;
    for (const std::uint64_t a : layers.packets_accessed) accessed += a;
    if (accessed != baseline.packets_accessed) {
      result.fail("traced packets_accessed " + std::to_string(accessed) +
                  " != untraced " + std::to_string(baseline.packets_accessed));
    }
    if (layers.detections != baseline.detections) {
      result.fail("traced detections differ from the untraced counter");
    }
    unaccounted.push_back((wall - layers.accounted()) / wall);

    std::vector<Metric> metrics = {
        {"watermark.dataset_build_s", layers.dataset_build_s, "s"},
        {"traffic.downstream_s", layers.downstream_s, "s"},
        {"experiment.fp_sample_s", layers.fp_sample_s, "s"},
        {"matching.context_build_s", layers.context_build_s, "s"},
        {"matching.context_builds",
         static_cast<double>(layers.context_builds), "count"},
    };
    for (std::size_t d = 0; d < kDetectors; ++d) {
      metrics.push_back({std::string(kDetectorLayers[d]) + ".detect_s",
                         layers.detect_s[d], "s"});
    }
    for (std::size_t d = 0; d < 3; ++d) {
      metrics.push_back(
          {std::string(kDetectorLayers[d]) + ".packets_accessed",
           static_cast<double>(layers.packets_accessed[d]), "count"});
    }
    metrics.push_back({"experiment.packets_accessed",
                       static_cast<double>(accessed), "count"});
    metrics.push_back({"experiment.detections",
                       static_cast<double>(layers.detections), "count"});
    metrics.push_back({"bench.trace_wall_s", wall, "s"});
    per_redrive.push_back(std::move(metrics));
  } while (seconds_between(run_start, Clock::now()) < options.seconds);

  add_pass_medians(per_redrive, result);
  const double traced_wall = result.metrics.back().value;
  const double unaccounted_ratio = median(unaccounted);
  constexpr double kTolerance = 0.05;
  if (unaccounted_ratio > kTolerance || unaccounted_ratio < -kTolerance) {
    result.fail("layer self times do not reconcile with the traced wall time");
  }
  result.note("redrives", std::to_string(per_redrive.size()));
  result.note("untraced_wall_s", baseline.seconds);
  result.note("reconcile_tolerance", kTolerance);
  result.add("failed_ratio", 0.0, "ratio");
  result.add("bench.trace_unaccounted_ratio", unaccounted_ratio, "ratio");
  result.add("bench.trace_overhead_ratio", traced_wall / baseline.seconds - 1.0,
             "ratio");
  return result;
}

}  // namespace perfbench
