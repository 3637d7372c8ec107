// Crash-safe append-only JSONL journalling: the shared core under the
// sweep checkpoints (experiment/checkpoint) and the streaming daemon's
// verdict WAL + flow-state snapshots (stream/durability).
//
// Format: one self-validating record per line:
//
//     {"crc32":"9a0b1c2d","data":{...}}\n
//
// The CRC-32 (IEEE, reflected 0xEDB88320) covers exactly the serialized
// `data` substring, so any torn or bit-flipped line is detected in
// isolation.  Each append is written and flushed as a single line, so
// after a SIGKILL the file is a valid journal plus at most one torn tail
// line, which the loader drops and append_to truncates before writing
// anything new (a blind append would glue the next record onto the torn
// fragment and corrupt both).  The first line is a header record; a
// corrupt or missing header fails the load with IoError, while corrupt
// *body* lines are skipped and counted — the caller decides what a lost
// record costs (a sweep recomputes the point; the WAL replays one verdict
// fewer).
//
// Durability contract (DESIGN.md §15): append() flushes to the OS page
// cache, so a record survives process death (SIGKILL, crash, OOM kill)
// the moment append() returns.  It does NOT survive a power cut or kernel
// panic unless the journal was opened with fsync=true, which forces every
// record to the platter before append() returns.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace sscor::journal {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
std::uint32_t crc32(std::string_view data);

/// FNV-1a 64-bit hash; the building block of config fingerprints.
std::uint64_t fnv1a64(std::string_view data);

/// 16-digit lowercase hex of `value` (the canonical fingerprint spelling).
std::string hex64(std::uint64_t value);

/// Parses 1-16 lowercase hex digits into `out`; false on anything else.
bool parse_hex(std::string_view s, std::uint64_t& out);

/// Truncates any torn final line (bytes after the last '\n') left behind by
/// a mid-write SIGKILL, so a subsequent append starts on a fresh line.
/// Returns the number of bytes removed; a missing file or one that already
/// ends in '\n' is left untouched.  A file with no newline at all (death
/// mid-header) truncates to empty.
std::size_t repair_torn_tail(const std::string& path);

/// Append-only writer.  Not thread-safe; callers serialise appends.
class Journal {
 public:
  /// Opens `path` truncated and writes the header record.
  static Journal create(const std::string& path,
                        const std::string& header_data, bool fsync = false);
  /// Opens `path` for appending after a successful load (header already
  /// present and verified by the caller).  Repairs a torn tail first —
  /// appending blindly after a SIGKILL would concatenate the new record
  /// onto the torn fragment and lose both lines.
  static Journal append_to(const std::string& path, bool fsync = false);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Appends one checksummed record line and flushes it to the OS page
  /// cache, so the record survives process death.  It does NOT survive a
  /// power cut or kernel panic unless the journal was opened with
  /// fsync=true (see the durability contract above).  Returns the
  /// record's CRC-32.
  std::uint32_t append(const std::string& data);

  /// fsync(2)s everything appended so far, for a writer opened without
  /// per-record fsync that needs one sync at its end.
  void sync();

  /// Body records appended through this writer (excludes the header).
  std::uint64_t appended() const { return appended_; }
  /// File bytes written through this writer, header line included.
  std::uint64_t bytes() const { return bytes_; }

 private:
  explicit Journal(std::FILE* file, bool fsync)
      : file_(file), fsync_(fsync) {}

  std::FILE* file_ = nullptr;
  bool fsync_ = false;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
};

/// A parsed journal: the header record's data plus every body record whose
/// checksum verified, in file order.  `dropped_lines` counts torn/corrupt
/// body lines that were skipped.
struct LoadedJournal {
  std::string header;
  std::vector<std::string> records;
  std::size_t dropped_lines = 0;
};

/// Reads and verifies `path`.  Throws IoError when the file cannot be read
/// or its header line is missing/corrupt; body corruption is tolerated.
LoadedJournal load_journal(const std::string& path);

}  // namespace sscor::journal
