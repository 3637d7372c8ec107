// Low-overhead tracing: hierarchical spans and decode introspection.
//
// Two complementary signals, both disabled by default:
//
//  * Spans (TRACE_SPAN("correlate.prune")) time a lexical scope and record
//    {name, start, duration, nesting depth, thread} into a fixed-capacity
//    per-thread ring buffer.  export_chrome_json() renders every recorded
//    span as Chrome trace_event JSON ("ph":"X" complete events), loadable
//    in Perfetto / chrome://tracing.  When tracing is runtime-disabled the
//    whole span is one inlined relaxed atomic load.  A phase that also
//    wants its time in the metrics registry uses metrics::ScopedTimer,
//    which records this span itself; TRACE_SPAN is for span-only scopes.
//
//  * Decode introspection records one structured row per correlator run —
//    per-bit decode outcome, matched-vs-chaff packet counts, window-scan
//    stats — exported as JSONL (one JSON object per line) sorted by
//    (pair, algorithm) so the file is byte-identical across thread counts.
//    This is the `--trace <file>` output of sscor_tool and the bench
//    harness.
//
// Span names must be string literals (or otherwise outlive the trace):
// the ring buffer stores the pointer, never a copy.
//
// Recording is thread-safe: each thread owns its ring buffer (a per-buffer
// mutex serialises recording against export, uncontended on the hot path);
// decode records go through one registry mutex, at most once per correlator
// run.  Buffers outlive their threads, so spans from joined workers still
// export.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sscor::trace {

// ---------------------------------------------------------------------------
// Runtime switches.  Reading is a single relaxed load; flipping is rare
// (front-end flag handling, tests).

namespace detail {
extern std::atomic<bool> g_spans_enabled;
extern std::atomic<bool> g_decode_enabled;
}  // namespace detail

inline bool spans_enabled() {
  return detail::g_spans_enabled.load(std::memory_order_relaxed);
}

inline bool decode_enabled() {
  return detail::g_decode_enabled.load(std::memory_order_relaxed);
}

void set_spans_enabled(bool enabled);
void set_decode_enabled(bool enabled);

// ---------------------------------------------------------------------------
// Spans.

/// Per-thread ring capacity; the newest spans win when a thread overflows
/// (the count of overwritten spans is reported by dropped_spans()).
inline constexpr std::size_t kSpanRingCapacity = 16384;

struct SpanEvent {
  const char* name = nullptr;   ///< static string (macro argument)
  std::int64_t start_us = 0;    ///< since the process trace epoch
  std::int64_t duration_us = 0;
  std::uint32_t depth = 0;      ///< nesting depth at begin (0 = root)
  std::uint32_t tid = 0;        ///< registration-ordered thread id, from 1
};

/// RAII span; use through TRACE_SPAN (or metrics::ScopedTimer) rather
/// than directly.
class Span {
 public:
  explicit Span(const char* name) {
    if (spans_enabled()) begin(name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

#define SSCOR_TRACE_CAT2_(a, b) a##b
#define SSCOR_TRACE_CAT_(a, b) SSCOR_TRACE_CAT2_(a, b)
#define TRACE_SPAN(name) \
  const ::sscor::trace::Span SSCOR_TRACE_CAT_(sscor_span_, __LINE__)(name)

/// All recorded spans from every thread, sorted by (tid, start, -duration,
/// depth) — parents sort before their children.
std::vector<SpanEvent> snapshot_spans();

/// Spans overwritten by ring-buffer overflow since the last clear.
std::uint64_t dropped_spans();

/// Renders snapshot_spans() as a Chrome trace_event JSON document.
std::string export_chrome_json();

/// Writes export_chrome_json() to `path`; throws IoError on failure.
void write_chrome_json(const std::string& path);

/// Discards recorded spans (buffers and thread ids survive).
void clear_spans();

// ---------------------------------------------------------------------------
// Decode introspection.

struct DecodeRecord {
  std::string pair;        ///< caller-scoped pair label (DecodePairScope)
  std::string algorithm;
  bool correlated = false;
  std::uint32_t hamming = 0;
  std::uint64_t cost = 0;  ///< the paper's packet-access metric
  bool matching_complete = true;
  bool cost_bound_hit = false;
  /// One char per watermark bit: '1' decoded == embedded, '0' mismatch,
  /// '-' never decoded (rejected before any watermark was produced).
  std::string bit_outcomes;
  std::uint64_t upstream_packets = 0;
  std::uint64_t downstream_packets = 0;
  /// downstream - upstream packet count: the chaff surplus for a correlated
  /// pair under a loss-free channel.
  std::int64_t excess_packets = 0;
  /// Upstream packets whose matching window is non-empty.
  std::uint64_t matched_upstream = 0;
  std::uint64_t window_total = 0;  ///< sum of matching-window widths
  std::uint64_t window_max = 0;    ///< widest matching window
};

/// Sets the thread's current pair label for DecodeRecords produced inside
/// the scope (restores the previous label on exit, so scopes nest).
class DecodePairScope {
 public:
  explicit DecodePairScope(std::string label);
  ~DecodePairScope();
  DecodePairScope(const DecodePairScope&) = delete;
  DecodePairScope& operator=(const DecodePairScope&) = delete;

 private:
  std::string previous_;
};

/// The thread's current pair label ("" outside any scope).
const std::string& current_pair_label();

/// Appends one record (thread-safe).  Callers typically guard with
/// decode_enabled().
void record_decode(DecodeRecord record);

/// All records as JSONL, sorted by (pair, algorithm): byte-identical across
/// thread schedules whenever (pair, algorithm) is unique per record.
std::string export_decode_jsonl();

/// Writes export_decode_jsonl() to `path`; throws IoError on failure.
void write_decode_jsonl(const std::string& path);

std::size_t decode_record_count();

void clear_decode();

}  // namespace sscor::trace
