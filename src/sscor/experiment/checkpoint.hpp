// Crash-safe sweeps: the journal directory and its record codecs.
//
// A full paper sweep is minutes of CPU; a crash (OOM kill, power loss,
// impatient ^C) must not throw the completed points away.  run_sweep_shard
// journals each finished point into its own file inside a directory and,
// on resume, folds the directory and recomputes only the missing points —
// the table is byte-identical to an uninterrupted run.  One crash-safe
// process is shard 0 of 1; N `sweep --shard i/N` workers journal disjoint
// points into the same directory, and a deterministic merge reconstructs
// the serial table (DESIGN.md §15).
//
// Format: JSON Lines, one self-validating record per line:
//
//     {"crc32":"9a0b1c2d","data":{...}}\n
//
// The CRC-32 (IEEE, reflected 0xEDB88320) covers exactly the serialized
// `data` substring, so any torn or bit-flipped line is detected in
// isolation.  The first line is a header record carrying a fingerprint of
// (ExperimentConfig, SweepSpec) minus scheduling knobs plus the table's
// column names; body records carry one completed point's row, or a claim
// marking a point this shard has taken from another shard's partition.
// Each append is written and flushed as a single line, so after a SIGKILL
// the file is a valid journal plus at most one torn tail line, which the
// loader drops and append_to truncates before writing anything new (a
// blind append would glue the next record onto the torn fragment and
// corrupt both).  Corrupt *body* lines only cost their point (it is
// recomputed); a header from another sweep fails the resume with IoError —
// silently recomputing under a different config would masquerade as the
// old sweep.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sscor/util/journal.hpp"
#include "sscor/util/table.hpp"

namespace sscor::experiment {

// The journalling core (checksummed JSONL lines, torn-tail repair, the
// append-only writer, the verifying loader) lives in util/journal so the
// streaming daemon's WAL and snapshots (stream/durability) share it
// without a stream -> experiment dependency; these aliases keep the sweep
// code and its callers on their historical names.
using journal::crc32;
using journal::fnv1a64;
using journal::repair_torn_tail;
using CheckpointJournal = journal::Journal;
using LoadedCheckpoint = journal::LoadedJournal;

/// Reads and verifies `path`.  Throws IoError when the file cannot be read
/// or its header line is missing/corrupt; body corruption is tolerated.
inline LoadedCheckpoint load_checkpoint(const std::string& path) {
  return journal::load_journal(path);
}

// --- sweep record codecs -------------------------------------------------
// The sweep stores plain row data; these helpers keep the JSON shape in one
// place.  Decoders return false on malformed input instead of throwing (a
// corrupt-but-checksummed record only costs a recompute), but they are
// strict: a record is accepted only when re-encoding what json::parse read
// reproduces it byte for byte — trailing garbage, reordered keys or an
// overflowing numeric field is a reject, never a silently mangled value.

/// {"fingerprint":"<16hex>","points":N,"columns":M,"names":["c",...]}
/// `names` carries the table's column headers so a journal directory can be
/// merged into the full table without re-deriving the detector line-up;
/// decode accepts the pre-cluster 3-field form (names left empty), which
/// no sweep resumes or merges any more.
std::string encode_checkpoint_header(std::uint64_t fingerprint,
                                     std::size_t points, std::size_t columns,
                                     const std::vector<std::string>& names = {});
bool decode_checkpoint_header(const std::string& data,
                              std::uint64_t& fingerprint, std::size_t& points,
                              std::size_t& columns,
                              std::vector<std::string>& names);
bool decode_checkpoint_header(const std::string& data,
                              std::uint64_t& fingerprint, std::size_t& points,
                              std::size_t& columns);

/// {"point":P,"row":["cell",...]}
std::string encode_checkpoint_row(std::size_t point,
                                  const std::vector<std::string>& row);
bool decode_checkpoint_row(const std::string& data, std::size_t& point,
                           std::vector<std::string>& row);

/// {"claim":P,"shard":S} — shard S has taken point P from another shard's
/// partition.  Advisory: claims stop other live workers from duplicating
/// the steal, and on resume pin the point back onto shard S.
std::string encode_checkpoint_claim(std::size_t point, std::size_t shard);
bool decode_checkpoint_claim(const std::string& data, std::size_t& point,
                             std::size_t& shard);

// --- cluster journal directory -------------------------------------------

/// Canonical per-shard journal filename: "shard-<i>-of-<N>.jsonl".
std::string shard_journal_name(std::size_t index, std::size_t count);
/// Strictly parses a shard journal filename; rejects anything else
/// (including index >= count).
bool parse_shard_journal_name(std::string_view name, std::size_t& index,
                              std::size_t& count);

/// Everything one pass over a journal directory learns: the shared header,
/// every verified row folded by point index, and every claim.  Duplicate
/// identical rows (two workers raced the same steal) are tolerated and
/// counted; two *different* rows for one point mean the directory mixes
/// incompatible runs and scanning throws.
struct ClusterScan {
  std::uint64_t fingerprint = 0;
  std::size_t points = 0;
  std::size_t columns = 0;
  std::size_t shard_count = 0;  ///< N from the filenames; 0 when no files
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> rows;  ///< by point; valid iff have
  std::vector<char> have;
  std::vector<std::size_t> row_shard;  ///< shard that journaled rows[p]
  /// (shard, point) claim records in (shard, file order).
  std::vector<std::pair<std::size_t, std::size_t>> claims;
  std::size_t shard_files = 0;     ///< journals folded in
  std::size_t skipped_files = 0;   ///< unreadable-header journals skipped
  std::size_t dropped_lines = 0;   ///< torn/corrupt body lines across files
  std::size_t duplicate_rows = 0;  ///< identical re-journaled rows
  std::size_t duplicate_claims = 0;

  bool complete() const {
    for (const char h : have) {
      if (h == 0) return false;
    }
    return true;
  }
  std::vector<std::size_t> missing_points() const {
    std::vector<std::size_t> missing;
    for (std::size_t p = 0; p < have.size(); ++p) {
      if (have[p] == 0) missing.push_back(p);
    }
    return missing;
  }
  bool claimed(std::size_t point) const {
    for (const auto& [shard, p] : claims) {
      if (p == point) return true;
    }
    return false;
  }
};

/// Scans `dir` for shard-<i>-of-<N>.jsonl journals (sorted by shard index,
/// so the fold is deterministic regardless of directory order) and folds
/// every verified record.  Journals whose header cannot be read (a worker
/// that died mid-header-write) are skipped and counted — their points just
/// recompute.  Throws IoError on a fingerprint/shape/shard-count mismatch
/// across files or on two conflicting rows for one point.  An empty or
/// missing directory returns a scan with shard_files == 0.
ClusterScan scan_journal_dir(const std::string& dir);

/// Deterministic merge: rebuilds the full sweep table from a complete scan,
/// byte-identical to the serial single-process run.  Throws IoError when
/// points are missing (naming them) or when the headers predate the
/// cluster format (no column names).
TextTable merge_cluster(const ClusterScan& scan);

}  // namespace sscor::experiment
