#include "sscor/experiment/sweep.hpp"

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <optional>

#include "sscor/util/error.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/parallel.hpp"

namespace sscor::experiment {
namespace {

double metric_value(Metric metric, const DetectorMetrics& m) {
  switch (metric) {
    case Metric::kDetectionRate:
      return m.detection_rate;
    case Metric::kFalsePositiveRate:
      return m.false_positive_rate;
    case Metric::kCostCorrelated:
      return m.cost_correlated.mean();
    case Metric::kCostUncorrelated:
      return m.cost_uncorrelated.mean();
  }
  throw InternalError("unhandled metric");
}

bool needs_detection(Metric metric) {
  return metric == Metric::kDetectionRate ||
         metric == Metric::kCostCorrelated;
}

void resolve_axes(const SweepSpec& spec, std::vector<double>& chaff_rates,
                  std::vector<DurationUs>& max_delays) {
  chaff_rates = spec.chaff_rates;
  max_delays = spec.max_delays;
  if (chaff_rates.empty()) {
    chaff_rates.assign(std::begin(kChaffRates), std::end(kChaffRates));
  }
  if (max_delays.empty()) {
    for (const auto s : kMaxDelaysSeconds) max_delays.push_back(seconds(s));
  }
}

/// The resolved sweep: the point grid, the table header (the swept axis
/// plus one column per detector), and the config/spec fingerprint — shared
/// by the in-memory and journaled drivers so their tables agree byte for
/// byte.
struct SweepPlan {
  struct Point {
    DurationUs delay;
    double chaff;
    std::string label;
  };
  std::vector<Point> points;
  std::vector<std::string> header;
  std::string x_header;
  std::uint64_t fingerprint = 0;
};

SweepPlan build_plan(const ExperimentConfig& config, const SweepSpec& spec) {
  // Every cell is a rate or a mean over the flows (detection metrics) or
  // over sampled pairs of distinct flows (false-positive metrics); with no
  // sample it would divide by zero and print a table of NaN or zero cells.
  require(config.flows > 0, "flows must be positive");
  if (!needs_detection(spec.metric)) {
    require(config.flows >= 2,
            "flows must be >= 2 for the fp and cost-uncorr metrics");
    require(config.fp_pairs > 0,
            "fp_pairs must be positive for the fp and cost-uncorr metrics");
  }
  SweepPlan plan;
  std::vector<double> chaff_rates;
  std::vector<DurationUs> max_delays;
  resolve_axes(spec, chaff_rates, max_delays);
  if (spec.axis == SweepAxis::kChaffRate) {
    for (const double rate : chaff_rates) {
      plan.points.push_back(
          {spec.fixed_delay, rate, TextTable::cell(rate, 1)});
    }
  } else {
    for (const DurationUs delay : max_delays) {
      plan.points.push_back(
          {delay, spec.fixed_chaff, TextTable::cell(to_seconds(delay), 0)});
    }
  }
  plan.x_header = spec.axis == SweepAxis::kChaffRate ? "chaff_rate_pps"
                                                     : "max_delay_s";
  plan.header.push_back(plan.x_header);
  {
    // Column names come from the detector line-up (delay value irrelevant).
    const auto detectors = paper_detectors(config, plan.points.front().delay);
    for (const auto& d : detectors) plan.header.push_back(d->name());
  }
  plan.fingerprint = sweep_fingerprint(config, spec);
  return plan;
}

/// Evaluates one sweep point into its table row.  A pure function of
/// (config, spec, point): every cell is deterministic, so any scheduling —
/// threads, shards, kill/resume splits — yields identical bytes.
std::vector<std::string> compute_row(const Dataset& dataset,
                                     const ExperimentConfig& config,
                                     const SweepSpec& spec,
                                     const SweepPlan::Point& point) {
  const metrics::ScopedTimer timer("sweep.point");
  const auto detectors = paper_detectors(config, point.delay);
  EvaluationRequest request;
  request.max_delay = point.delay;
  request.chaff_rate = point.chaff;
  request.run_detection = needs_detection(spec.metric);
  request.run_false_positive = !request.run_detection;
  const auto point_metrics = evaluate_point(dataset, detectors, request);

  std::vector<std::string> row{point.label};
  for (const auto& m : point_metrics) {
    const double value = metric_value(spec.metric, m);
    const int precision = (spec.metric == Metric::kCostCorrelated ||
                           spec.metric == Metric::kCostUncorrelated)
                              ? 0
                              : 4;
    row.push_back(TextTable::cell(value, precision));
  }
  return row;
}

}  // namespace

std::uint64_t sweep_fingerprint(const ExperimentConfig& config,
                                const SweepSpec& spec) {
  std::vector<double> chaff_rates;
  std::vector<DurationUs> max_delays;
  resolve_axes(spec, chaff_rates, max_delays);
  // Canonical text form of every value-determining field.  `threads` is
  // deliberately excluded: the table is schedule-independent, so a
  // journal taken at 8 threads resumes fine at 1.
  std::string canon = "v1";
  auto field = [&canon](const std::string& value) {
    canon += '|';
    canon += value;
  };
  field(std::to_string(config.watermark.bits));
  field(std::to_string(config.watermark.redundancy));
  field(std::to_string(config.watermark.pair_offset));
  field(std::to_string(config.watermark.embedding_delay));
  field(std::to_string(config.hamming_threshold));
  field(std::to_string(config.cost_bound));
  field(std::to_string(config.zhang_threshold));
  field(to_string(config.corpus));
  field(std::to_string(config.flows));
  field(std::to_string(config.packets_per_flow));
  field(std::to_string(config.fp_pairs));
  field(std::to_string(config.master_seed));
  field(std::to_string(static_cast<int>(spec.metric)));
  field(std::to_string(static_cast<int>(spec.axis)));
  field(std::to_string(spec.fixed_delay));
  field(TextTable::cell(spec.fixed_chaff, 6));
  for (const double rate : chaff_rates) field(TextTable::cell(rate, 6));
  for (const DurationUs delay : max_delays) field(std::to_string(delay));
  return fnv1a64(canon);
}

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kDetectionRate:
      return "detection rate";
    case Metric::kFalsePositiveRate:
      return "false positive rate";
    case Metric::kCostCorrelated:
      return "cost (packets accessed), correlated flows";
    case Metric::kCostUncorrelated:
      return "cost (packets accessed), uncorrelated flows";
  }
  return "unknown";
}

TextTable run_sweep(const ExperimentConfig& config, const SweepSpec& spec,
                    const ProgressFn& progress) {
  const metrics::ScopedTimer timer("sweep.run");
  const SweepPlan plan = build_plan(config, spec);
  const auto& points = plan.points;
  metrics::counter("sweep.points").add(points.size());

  const Dataset dataset = Dataset::build(config);
  TextTable table(plan.header);

  // Sweep points are mutually independent: every point derives its own
  // detectors and its downstream flows from (master seed, flow index,
  // point parameters), so dispatching them concurrently through the pool
  // changes only the schedule, never a value.  Rows are collected by point
  // index and appended in order, keeping the table byte-identical to the
  // threads=1 run.
  std::vector<std::vector<std::string>> rows(points.size());
  std::mutex progress_mutex;
  parallel_for(
      points.size(),
      [&](std::size_t p) {
        if (progress) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          progress(p, points.size(), plan.x_header + "=" + points[p].label);
        }
        rows[p] = compute_row(dataset, config, spec, points[p]);
      },
      config.threads);
  for (auto& row : rows) {
    table.add_row(std::move(row));
  }
  return table;
}

std::optional<TextTable> run_sweep_shard(const ExperimentConfig& config,
                                         const SweepSpec& spec,
                                         const ShardSpec& shard,
                                         const ProgressFn& progress) {
  namespace fs = std::filesystem;
  require(shard.count > 0, "shard count must be positive");
  require(shard.index < shard.count, "shard index out of range");
  require(!shard.journal_dir.empty(), "journaled sweep needs a journal dir");

  const metrics::ScopedTimer timer("sweep.run_shard");
  const SweepPlan plan = build_plan(config, spec);
  const std::size_t point_count = plan.points.size();

  // Refuse a directory of another cluster size before writing anything: a
  // journal left behind under the wrong count would make every later scan
  // of the directory fail, the rightful workers' included.
  if (const std::size_t existing =
          scan_journal_dir(shard.journal_dir).shard_count;
      existing != 0 && existing != shard.count) {
    throw IoError("journal dir belongs to a " + std::to_string(existing) +
                  "-way cluster, not " + std::to_string(shard.count) + ": " +
                  shard.journal_dir);
  }

  // Open this shard's journal: a resume appends when the header decodes;
  // otherwise (no resume, no journal yet, or a header torn by a death
  // mid-first-write, whose records were unreadable anyway) it starts a
  // fresh one.  Whether the header belongs to this sweep is the directory
  // scan's call, below.
  fs::create_directories(shard.journal_dir);
  const std::string own_path =
      (fs::path(shard.journal_dir) /
       shard_journal_name(shard.index, shard.count))
          .string();
  const auto header_decodes = [&]() {
    std::uint64_t fingerprint = 0;
    std::size_t points = 0, columns = 0;
    try {
      return decode_checkpoint_header(load_checkpoint(own_path).header,
                                      fingerprint, points, columns);
    } catch (const IoError&) {
      return false;
    }
  };
  CheckpointJournal journal =
      shard.resume && header_decodes()
          ? CheckpointJournal::append_to(own_path, shard.fsync)
          : CheckpointJournal::create(
                own_path,
                encode_checkpoint_header(plan.fingerprint, point_count,
                                         plan.header.size(), plan.header),
                shard.fsync);

  // Fold the whole directory: completed points anywhere count as done, and
  // claims pin stolen points to their claimer.
  auto scan_all = [&]() {
    ClusterScan scan = scan_journal_dir(shard.journal_dir);
    if (scan.shard_files > 0 &&
        (scan.fingerprint != plan.fingerprint ||
         scan.points != point_count || scan.columns != plan.header.size() ||
         scan.names != plan.header)) {
      throw IoError(
          "journal dir was written by a different sweep "
          "(config or spec changed): " +
          shard.journal_dir);
    }
    if (scan.have.size() != point_count) {
      scan.rows.assign(point_count, {});
      scan.have.assign(point_count, 0);
      scan.row_shard.assign(point_count, 0);
      scan.points = point_count;
    }
    return scan;
  };

  ClusterScan scan = scan_all();
  metrics::counter("checkpoint.resumed_points")
      .add(static_cast<std::uint64_t>(
          std::count(scan.have.begin(), scan.have.end(), char{1})));
  metrics::counter("checkpoint.dropped_lines").add(scan.dropped_lines);

  const auto mine = [&](std::size_t p) {
    if (p % shard.count == shard.index) return true;
    for (const auto& [claimer, point] : scan.claims) {
      if (point == p && claimer == shard.index) return true;
    }
    return false;
  };

  // The dataset is the expensive part of startup; a worker that resumes
  // into an already-complete partition never builds it.
  std::optional<Dataset> dataset;
  std::mutex journal_mutex;
  // Appends one record.  The crash-injection hook dies as hard as a power
  // cut right after the line reached the OS.
  const auto journal_record = [&](const std::string& data) {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    journal.append(data);
    if (shard.sigkill_after_points >= 0 &&
        journal.appended() >=
            static_cast<std::uint64_t>(shard.sigkill_after_points)) {
      std::raise(SIGKILL);
    }
  };
  std::mutex progress_mutex;
  const auto compute_targets = [&](const std::vector<std::size_t>& targets) {
    if (targets.empty()) return;
    if (!dataset) dataset.emplace(Dataset::build(config));
    parallel_for(
        targets.size(),
        [&](std::size_t i) {
          const std::size_t p = targets[i];
          if (progress) {
            const std::lock_guard<std::mutex> lock(progress_mutex);
            progress(p, point_count,
                     plan.x_header + "=" + plan.points[p].label);
          }
          auto row = compute_row(*dataset, config, spec, plan.points[p]);
          journal_record(encode_checkpoint_row(p, row));
          scan.rows[p] = std::move(row);
          scan.have[p] = 1;
        },
        config.threads);
  };

  // Pass 1: this shard's partition — owned points plus points it claimed
  // in a previous (killed) incarnation.
  std::vector<std::size_t> owned;
  for (std::size_t p = 0; p < point_count; ++p) {
    if (scan.have[p] == 0 && mine(p)) owned.push_back(p);
  }
  compute_targets(owned);

  // Pass 2 (work stealing): rescan for points no shard has completed or
  // claimed — typically the unstarted share of a crashed worker.  The
  // claim is journaled before the compute so other live workers skip the
  // point and a post-claim death pins it to this shard's resume.
  if (shard.steal) {
    scan = scan_all();
    std::vector<std::size_t> stolen;
    for (std::size_t p = 0; p < point_count; ++p) {
      if (scan.have[p] == 0 && !mine(p) && !scan.claimed(p)) {
        stolen.push_back(p);
      }
    }
    if (!stolen.empty()) {
      for (const std::size_t p : stolen) {
        journal_record(encode_checkpoint_claim(p, shard.index));
      }
      metrics::counter("cluster.stolen_points").add(stolen.size());
      compute_targets(stolen);
    }
  }

  // Implicit merge on finalize: when the directory holds every point, any
  // finishing worker can emit the table — the bytes are the same whoever
  // does.  Otherwise other shards still own outstanding points.
  scan = scan_all();
  if (!scan.complete()) return std::nullopt;
  return merge_cluster(scan);
}

}  // namespace sscor::experiment
