// Tests for the distributed sharded sweep backend (DESIGN.md §15): N
// workers journaling disjoint partitions of one grid into a shared
// directory, work-stealing via claim records, kill -9 + resume of
// individual shards, and the deterministic merge that must reproduce the
// serial single-process table byte for byte.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sscor/experiment/checkpoint.hpp"
#include "sscor/experiment/sweep.hpp"
#include "sscor/util/error.hpp"

namespace sscor {
namespace {

namespace fs = std::filesystem;
using experiment::CheckpointJournal;
using experiment::ClusterScan;
using experiment::ShardSpec;

experiment::ExperimentConfig mini_config(std::uint64_t seed = 77) {
  experiment::ExperimentConfig config;
  config.watermark.bits = 4;
  config.watermark.redundancy = 1;
  config.flows = 2;
  config.packets_per_flow = 60;
  config.fp_pairs = 2;
  config.cost_bound = 50'000;
  config.master_seed = seed;
  config.threads = 1;
  return config;
}

experiment::SweepSpec mini_spec() {
  experiment::SweepSpec spec;
  spec.metric = experiment::Metric::kDetectionRate;
  spec.axis = experiment::SweepAxis::kChaffRate;
  spec.chaff_rates = {0.0, 1.0, 2.0, 3.0};
  return spec;
}

/// Fresh per-test journal directory under the system temp dir.
std::string temp_dir(const std::string& stem) {
  static std::atomic<int> counter{0};
  const std::string dir =
      (fs::temp_directory_path() /
       (stem + "-" + std::to_string(getpid()) + "-" +
        std::to_string(counter.fetch_add(1))))
          .string();
  fs::remove_all(dir);
  return dir;
}

ShardSpec shard_of(std::size_t index, std::size_t count,
                   const std::string& dir, bool steal = false) {
  ShardSpec shard;
  shard.index = index;
  shard.count = count;
  shard.journal_dir = dir;
  shard.steal = steal;
  return shard;
}

TEST(ClusterSweep, RejectsMalformedShardSpec) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  EXPECT_THROW(
      run_sweep_shard(config, spec, shard_of(0, 0, "/tmp/nowhere")),
      InvalidArgument);
  EXPECT_THROW(
      run_sweep_shard(config, spec, shard_of(2, 2, "/tmp/nowhere")),
      InvalidArgument);
  ShardSpec no_dir = shard_of(0, 2, "");
  EXPECT_THROW(run_sweep_shard(config, spec, no_dir), InvalidArgument);
}

/// The core acceptance pin: for shard counts {1, 2, 4} and thread counts
/// {1, default}, running every worker (here: sequentially in one process)
/// yields a directory whose merge — returned by whichever worker finished
/// the grid — is byte-identical to the serial run_sweep table.
TEST(ClusterSweep, ShardedMatchesSerialAcrossShardAndThreadCounts) {
  const auto spec = mini_spec();
  for (const unsigned threads : {1u, 0u}) {
    auto config = mini_config();
    config.threads = threads;
    const std::string serial = run_sweep(config, spec).to_string();
    for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
      const std::string dir = temp_dir("cluster-matrix");
      for (std::size_t i = 0; i < count; ++i) {
        const auto table =
            run_sweep_shard(config, spec, shard_of(i, count, dir));
        if (i + 1 < count) {
          EXPECT_FALSE(table.has_value())
              << "worker " << i << "/" << count
              << " saw a complete grid before the last worker ran";
        } else {
          ASSERT_TRUE(table.has_value()) << "final worker " << i << "/"
                                         << count << " found gaps";
          EXPECT_EQ(table->to_string(), serial)
              << count << " shards, threads=" << threads;
        }
      }
      // The after-the-fact merge path sees the same bytes.
      const ClusterScan scan = experiment::scan_journal_dir(dir);
      EXPECT_EQ(scan.shard_files, count);
      EXPECT_EQ(experiment::merge_cluster(scan).to_string(), serial);
      fs::remove_all(dir);
    }
  }
}

/// A lone stealing worker completes every other shard's partition too.
TEST(ClusterSweep, StealingWorkerCompletesForeignPoints) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();
  const std::string dir = temp_dir("cluster-steal");

  const auto table = run_sweep_shard(config, spec,
                                     shard_of(0, 2, dir, /*steal=*/true));
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->to_string(), serial);

  // The steals are on the record: claims for every foreign point.
  const ClusterScan scan = experiment::scan_journal_dir(dir);
  EXPECT_TRUE(scan.claimed(1));
  EXPECT_TRUE(scan.claimed(3));
  EXPECT_FALSE(scan.claimed(0));
  fs::remove_all(dir);
}

/// kill -9 each shard of a 2-way cluster in turn (real fork + SIGKILL, no
/// unwinding), resume it, and require the merged table to match serial.
TEST(ClusterSweep, KillAndResumeEachShardReproducesTheTable) {
  const auto config = mini_config(91);
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();

  for (const std::size_t victim : {std::size_t{0}, std::size_t{1}}) {
    const std::string dir =
        temp_dir("cluster-kill-" + std::to_string(victim));

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: one journaled point, then die mid-run.  threads=1 keeps
      // the inline parallel_for path off the forked-away thread pool.
      ShardSpec shard = shard_of(victim, 2, dir);
      shard.sigkill_after_points = 1;
      try {
        run_sweep_shard(config, spec, shard);
      } catch (...) {
      }
      _exit(42);  // unreachable when the injection fires
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The survivor finishes its own partition but must report the grid
    // incomplete (no stealing: the victim's claim-free points stay put
    // only because steal=false here).
    const auto survivor =
        run_sweep_shard(config, spec, shard_of(1 - victim, 2, dir));
    EXPECT_FALSE(survivor.has_value());

    // Resuming the victim recomputes only its missing points and, as the
    // finishing worker, returns the merged table.
    ShardSpec resume = shard_of(victim, 2, dir);
    resume.resume = true;
    const auto resumed = run_sweep_shard(config, spec, resume);
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->to_string(), serial) << "victim shard " << victim;
    fs::remove_all(dir);
  }
}

/// A claim pins a stolen point to its claimer: other workers must not
/// duplicate it, and the claimer's resume computes it.
TEST(ClusterSweep, ClaimPinsStolenPointToClaimer) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();
  const std::string dir = temp_dir("cluster-claim");

  // Shards 0 and 2 of 3 complete their partitions; shard 1 (owning point
  // 1) never runs.  Points: 0->s0, 1->s1, 2->s2, 3->s0.
  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 3, dir)));
  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(2, 3, dir)));

  // Shard 0 claims point 1 (as if it died right after journaling the
  // claim, before computing the row).
  {
    auto journal = CheckpointJournal::append_to(
        (fs::path(dir) / experiment::shard_journal_name(0, 3)).string());
    journal.append(experiment::encode_checkpoint_claim(1, 0));
  }

  // A stealing third party must respect the claim and leave the point.
  EXPECT_FALSE(run_sweep_shard(config, spec,
                               shard_of(2, 3, dir, /*steal=*/true)));

  // The claimer's resume owns the pinned point and finishes the grid.
  ShardSpec resume = shard_of(0, 3, dir);
  resume.resume = true;
  const auto resumed = run_sweep_shard(config, spec, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->to_string(), serial);
  fs::remove_all(dir);
}

/// Two workers racing the same steal journal the same deterministic row
/// twice; the scan counts it and the merge is unaffected.
TEST(ClusterSweep, DuplicateIdenticalRowsAreTolerated) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();
  const std::string dir = temp_dir("cluster-dup");

  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));
  ASSERT_TRUE(run_sweep_shard(config, spec, shard_of(1, 2, dir)));

  // Re-journal a row shard 1 owns into shard 0's journal, byte-identical.
  ClusterScan scan = experiment::scan_journal_dir(dir);
  ASSERT_TRUE(scan.have[1]);
  {
    auto journal = CheckpointJournal::append_to(
        (fs::path(dir) / experiment::shard_journal_name(0, 2)).string());
    journal.append(experiment::encode_checkpoint_row(1, scan.rows[1]));
  }
  scan = experiment::scan_journal_dir(dir);
  EXPECT_EQ(scan.duplicate_rows, 1u);
  EXPECT_EQ(experiment::merge_cluster(scan).to_string(), serial);
  fs::remove_all(dir);
}

/// Two *different* rows for one point mean the directory mixes
/// incompatible runs; folding that silently would publish garbage.
TEST(ClusterSweep, ConflictingRowsAreFatal) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string dir = temp_dir("cluster-conflict");

  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));
  ASSERT_TRUE(run_sweep_shard(config, spec, shard_of(1, 2, dir)));

  ClusterScan scan = experiment::scan_journal_dir(dir);
  auto bogus = scan.rows[1];
  bogus.back() = "9.9999";
  {
    auto journal = CheckpointJournal::append_to(
        (fs::path(dir) / experiment::shard_journal_name(0, 2)).string());
    journal.append(experiment::encode_checkpoint_row(1, bogus));
  }
  EXPECT_THROW(experiment::scan_journal_dir(dir), IoError);
  fs::remove_all(dir);
}

TEST(ClusterSweep, MergeOfIncompleteDirectoryIsFatal) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string dir = temp_dir("cluster-incomplete");
  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));
  const ClusterScan scan = experiment::scan_journal_dir(dir);
  EXPECT_FALSE(scan.complete());
  EXPECT_EQ(scan.missing_points(), (std::vector<std::size_t>{1, 3}));
  EXPECT_THROW(experiment::merge_cluster(scan), IoError);
  fs::remove_all(dir);
}

/// A worker joining a directory written by a different sweep (changed
/// config or spec) must refuse rather than mix tables.
TEST(ClusterSweep, ForeignSweepDirectoryIsFatal) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string dir = temp_dir("cluster-foreign");
  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));

  auto other = mini_config();
  other.master_seed += 1;
  EXPECT_THROW(run_sweep_shard(other, spec, shard_of(1, 2, dir)), IoError);
  fs::remove_all(dir);
}

/// A worker started with another shard count is a setup error.  It is
/// refused before it writes anything, so the directory stays usable by
/// the cluster it belongs to.
TEST(ClusterSweep, MixedShardCountsAreFatal) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();
  const std::string dir = temp_dir("cluster-mixed");
  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));
  EXPECT_THROW(run_sweep_shard(config, spec, shard_of(1, 4, dir)), IoError);
  // A worker that forgot its shard is shard 0 of 1.
  EXPECT_THROW(run_sweep_shard(config, spec, ShardSpec{.journal_dir = dir}),
               IoError);
  EXPECT_EQ(experiment::scan_journal_dir(dir).shard_files, 1u);
  const auto table = run_sweep_shard(config, spec, shard_of(1, 2, dir));
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->to_string(), serial);
  fs::remove_all(dir);
}

/// Non-journal files in the directory are ignored; a shard journal whose
/// header was torn away is skipped (its points recompute), not fatal.
TEST(ClusterSweep, ScanSkipsNonJournalAndHeaderlessFiles) {
  const auto config = mini_config();
  const auto spec = mini_spec();
  const std::string serial = run_sweep(config, spec).to_string();
  const std::string dir = temp_dir("cluster-skip");

  EXPECT_FALSE(run_sweep_shard(config, spec, shard_of(0, 2, dir)));
  {
    std::ofstream stray((fs::path(dir) / "notes.txt").string());
    stray << "not a journal\n";
  }
  {
    // Shard 1 died mid-header-write: zero-length journal.
    std::ofstream torn(
        (fs::path(dir) / experiment::shard_journal_name(1, 2)).string());
  }
  const ClusterScan scan = experiment::scan_journal_dir(dir);
  EXPECT_EQ(scan.shard_files, 1u);
  EXPECT_EQ(scan.skipped_files, 1u);

  // The owner of the torn journal resumes from scratch and finishes.
  ShardSpec resume = shard_of(1, 2, dir);
  resume.resume = true;
  const auto resumed = run_sweep_shard(config, spec, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->to_string(), serial);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sscor
