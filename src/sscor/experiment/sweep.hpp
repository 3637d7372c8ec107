// Sweep drivers that regenerate the paper's figures 3-10.
//
// Each figure is one metric over one swept axis with the other parameter
// fixed; run_sweep produces the table of series (one column per detector)
// that the corresponding bench binary prints and writes as CSV, in memory.
// run_sweep_shard is the crash-safe variant: it journals every completed
// point into a directory and resumes from it.  One process is shard 0 of
// 1; N workers journal disjoint subsets of the same grid into a shared
// directory and the merge reconstructs the serial table byte for byte
// (DESIGN.md §15).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sscor/experiment/checkpoint.hpp"
#include "sscor/experiment/evaluation.hpp"
#include "sscor/util/table.hpp"

namespace sscor::experiment {

enum class Metric {
  kDetectionRate,
  kFalsePositiveRate,
  kCostCorrelated,
  kCostUncorrelated,
};

std::string to_string(Metric metric);

enum class SweepAxis {
  kChaffRate,  ///< sweep lambda_c, Delta fixed   (figures 3, 5, 7, 9)
  kMaxDelay,   ///< sweep Delta, lambda_c fixed   (figures 4, 6, 8, 10)
};

struct SweepSpec {
  Metric metric = Metric::kDetectionRate;
  SweepAxis axis = SweepAxis::kChaffRate;
  /// The fixed parameter: Delta when sweeping chaff, lambda_c when
  /// sweeping delay.
  DurationUs fixed_delay = kFig3FixedDelay;
  double fixed_chaff = kFig4FixedChaff;
  /// Axis values; defaults to the paper's grids when empty.
  std::vector<double> chaff_rates;
  std::vector<DurationUs> max_delays;
};

/// Progress callback: (point index, point count, human-readable label).
/// Invocations are serialised, but when `config.threads != 1` sweep points
/// run concurrently, so indices may arrive out of order.
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const std::string&)>;

/// One worker of a journaled sweep.  The default is shard 0 of 1: a single
/// crash-safe process that owns every point.
struct ShardSpec {
  std::size_t index = 0;
  /// Total workers (>= 1).
  std::size_t count = 1;
  /// Directory of per-shard journals (shard-<i>-of-<N>.jsonl).
  std::string journal_dir;
  /// After finishing its own partition (point % count == index, plus any
  /// point it previously claimed), the worker opportunistically claims and
  /// computes points no other shard has completed or claimed — so a dead
  /// worker's unclaimed share still finishes.  A stolen point is pinned to
  /// its claimer: if the claimer dies mid-compute, resume *that* shard to
  /// finish it.
  bool steal = true;
  /// Keep this shard's journal and compute only the points the directory
  /// lacks.  When false the shard's journal is recreated empty (other
  /// shards' journals still count).
  bool resume = false;
  /// Pay one fsync per appended record (see the durability contract in
  /// DESIGN.md §15).  Off by default: a single-machine sweep only needs to
  /// survive process death, not power loss.
  bool fsync = false;
  /// Crash-injection test hook: raise(SIGKILL) immediately after this many
  /// body records have been appended (< 0 = disabled).  Used by the
  /// kill-and-resume tests and the chaos harness; never set in production.
  std::int64_t sigkill_after_points = -1;
};

/// Fingerprint of everything that determines the sweep's values — the
/// experiment config minus scheduling knobs (`threads`) plus the resolved
/// spec — used to refuse resuming a journal against a different sweep.
std::uint64_t sweep_fingerprint(const ExperimentConfig& config,
                                const SweepSpec& spec);

/// Runs the sweep over the paper's five-detector line-up and returns the
/// table: first column the swept axis, one column per detector.  Sweep
/// points are dispatched concurrently through the shared thread pool
/// (`config.threads`; 1 = fully serial); every cell is a deterministic
/// function of (config, spec), so the table is byte-identical for every
/// thread count.  Nothing is journaled: see run_sweep_shard.
TextTable run_sweep(const ExperimentConfig& config, const SweepSpec& spec,
                    const ProgressFn& progress = {});

/// One worker of a journaled sweep: journals its share of the grid (owned
/// partition, previously claimed points, then stolen points) into
/// `shard.journal_dir` and, when the directory holds every point at exit,
/// returns the merged table — byte-identical to run_sweep, across any
/// kill/resume split.  Shard 0 of 1 owns every point, so it always returns
/// the table.  Returns nullopt while other shards' points are still
/// outstanding (merge later with scan_journal_dir + merge_cluster).
/// An exception from a point (or from `progress`) stops the worker as
/// parallel_for does: in-flight points finish and are journaled, unstarted
/// points never run, and the exception propagates — a resume picks up
/// exactly the missing points.  Throws IoError when the directory belongs
/// to another shard count (refused before anything is written) or to a
/// different sweep.
std::optional<TextTable> run_sweep_shard(const ExperimentConfig& config,
                                         const SweepSpec& spec,
                                         const ShardSpec& shard,
                                         const ProgressFn& progress = {});

}  // namespace sscor::experiment
