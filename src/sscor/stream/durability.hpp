// Crash durability for the streaming daemon: verdict WAL + engine
// snapshots.
//
// The daemon's output contract under crashes is exactly-once for
// committed verdicts: a verdict is *committed* once its WAL record is
// appended, and `watch --resume` re-emits every committed verdict —
// byte-identical to the uninterrupted run — then continues the stream
// without duplicating or losing any of them.  Three artifacts in
// --state-dir make that work:
//
//  * verdicts.wal — an append-only journal (util/journal: one
//    CRC-framed record per line, torn tails repaired on open) holding
//    every committed verdict.  The WAL alone is sufficient to resume a
//    replayable feed: catch-up regenerates committed verdicts and
//    commit() suppresses the duplicates.
//  * snapshot.journal — the *base*: a full EngineSnapshot (flow table +
//    buffered packets + tallies), written to a temp file and rename()d
//    into place, so a reader never sees a half-written base.
//  * snapshot.delta — a journal of *delta records*, one per snapshot
//    point since the base, each holding only what changed since the
//    previous point: tallies, each shard's LRU order, and the flows
//    whose fields, buffer, tombstone flag or held verdicts changed (new
//    packets only).  Its header names the base it extends.  A point
//    writes a new base instead of a delta at an incarnation's first
//    snapshot and whenever the log has grown past the base (compaction),
//    then restarts the log.
//
// Resume folds the base and the log's records, in order, into the
// EngineSnapshot of the last complete point.  A snapshot lets resume skip
// already-ingested input instead of replaying the feed from packet zero;
// a torn or corrupt delta costs the points from it on, a log naming
// another base is ignored, and a corrupt or missing base silently falls
// back to full replay — snapshots are an optimisation, never a
// correctness dependency.
//
// All three files carry a session *fingerprint* (caller-computed hash of
// the configuration that shapes verdicts: upstreams, correlator config,
// engine options).  Resuming against a mismatched fingerprint throws —
// replaying a WAL into a differently-configured engine would interleave
// two incompatible verdict streams.
//
// Durability levels: by default appends reach the OS page cache
// (fflush), which survives process death — the kill -9 story — but not
// power loss; --fsync upgrades every WAL append and delta record to
// fsync(2), and syncs each base once before its rename.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sscor/stream/stream_engine.hpp"
#include "sscor/util/journal.hpp"

namespace sscor::stream {

struct DurabilityOptions {
  /// Directory holding verdicts.wal, snapshot.journal and snapshot.delta
  /// (created if missing).
  std::string state_dir;
  /// Ingested packets between snapshot attempts (maybe_snapshot).
  std::uint64_t snapshot_interval = 4096;
  /// fsync every WAL append and delta record, and each base once
  /// (power-loss durability).
  bool fsync = false;
  /// Test hook: raise SIGKILL immediately after the Nth fresh commit of
  /// this process (-1 = never).  Exercises the crash-resume path exactly
  /// at a commit boundary, the worst case for duplication.
  std::int64_t sigkill_after_commits = -1;
};

/// What resume() recovered from --state-dir.
struct ResumeState {
  /// A usable snapshot was recovered; `snapshot` is valid (the base with
  /// every intact delta folded in).
  bool have_snapshot = false;
  EngineSnapshot snapshot;
  /// Every committed verdict, WAL order (== original emission order).
  std::vector<StreamVerdict> committed;
  /// Corrupt WAL lines skipped (beyond the repaired torn tail).
  std::size_t dropped_lines = 0;
};

/// JSON codec for one verdict (used by the WAL and by snapshot `held`
/// lists).  decode throws InvalidArgument on malformed input.
std::string encode_verdict(const StreamVerdict& verdict);
StreamVerdict decode_verdict(const std::string& text);

class DurableSession {
 public:
  /// Creates state_dir if missing.  No file is touched until
  /// begin_fresh() or resume().
  DurableSession(DurabilityOptions options, std::uint64_t fingerprint);

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  /// Starts a fresh session: deletes any previous WAL/snapshot files and
  /// opens a new WAL.
  void begin_fresh();

  /// Recovers a previous session: repairs and replays the WAL (throws
  /// IoError on a fingerprint mismatch), loads the base when present and
  /// intact and folds the delta log into it, and reopens the WAL for
  /// appending.  A missing WAL behaves like begin_fresh().
  ResumeState resume();

  /// Commits one verdict.  Returns true when the verdict is new (the
  /// caller should emit it) and false when it was already committed by a
  /// previous incarnation — the catch-up dedup that makes replayed input
  /// exactly-once.
  bool commit(const StreamVerdict& verdict);

  /// Writes a snapshot point (a delta, or a base when compacting) when at
  /// least snapshot_interval packets were ingested since the last one.
  /// The engine must be quiescent (flushed + drained, all drained verdicts
  /// committed).
  void maybe_snapshot(StreamEngine& engine);

  /// Writes a snapshot unconditionally (same quiescence requirement);
  /// the graceful-shutdown path.
  void final_snapshot(StreamEngine& engine);

  std::uint64_t commits() const { return commits_; }
  std::uint64_t fresh_commits() const { return fresh_commits_; }
  /// Snapshot points written by this process (bases and deltas).
  std::uint64_t snapshots_written() const { return snapshots_written_; }
  const std::string& wal_path() const { return wal_path_; }
  /// The base (snapshot.journal).
  const std::string& snapshot_path() const { return snapshot_path_; }

 private:
  /// What a delta is diffed against: one live flow at the last point.
  /// Held verdicts only accumulate until the flow reaches min_packets and
  /// then leave together, so their count stands for the list.
  struct FlowMark {
    TimeUs last_seen = 0;
    std::uint64_t packets = 0;
    std::size_t buffered = 0;
    std::size_t held = 0;
    bool tombstone = false;
  };

  void write_snapshot(StreamEngine& engine);
  void write_base(const EngineSnapshot& snapshot);
  void append_delta(const EngineSnapshot& snapshot);

  DurabilityOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::string wal_path_;
  std::string snapshot_path_;
  std::string delta_path_;
  std::optional<journal::Journal> wal_;
  /// This incarnation's delta log; empty until its first base is written.
  std::optional<journal::Journal> delta_;
  std::uint64_t base_bytes_ = 0;
  /// Flows at the last point, keyed by first_seen_seq.
  std::unordered_map<std::uint64_t, FlowMark> marks_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t commits_ = 0;
  std::uint64_t fresh_commits_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t last_snapshot_seq_ = 0;
};

}  // namespace sscor::stream
