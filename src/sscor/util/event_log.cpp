#include "sscor/util/event_log.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <utility>

#include "sscor/util/error.hpp"
#include "sscor/util/json.hpp"
#include "sscor/util/metrics.hpp"

namespace sscor::eventlog {
namespace {

struct State {
  std::mutex mutex;
  std::ofstream out;
  Options options;
  double tokens = 0.0;
  std::chrono::steady_clock::time_point last_refill;
  std::uint64_t seq = 0;
  std::uint64_t emitted = 0;
  /// Drops not yet reported via a record's `suppressed` field.
  std::uint64_t pending_suppressed = 0;
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_emitted{0};
std::atomic<std::uint64_t> g_suppressed{0};

std::int64_t wall_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Refills the bucket from elapsed wall time and takes one token; kWarn
/// and above always pass.  Caller holds the mutex.
bool admit(State& s, Severity severity) {
  if (severity >= Severity::kWarn) return true;
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - s.last_refill).count();
  s.last_refill = now;
  s.tokens = std::min(s.options.burst,
                      s.tokens + elapsed * s.options.tokens_per_second);
  if (s.tokens < 1.0) return false;
  s.tokens -= 1.0;
  return true;
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "?";
}

Field::Field(std::string_view k, std::string_view value) : key(k) {
  json_value = json::escape(value);
}
Field::Field(std::string_view k, std::uint64_t value)
    : key(k), json_value(std::to_string(value)) {}
Field::Field(std::string_view k, std::int64_t value)
    : key(k), json_value(std::to_string(value)) {}
Field::Field(std::string_view k, double value)
    : key(k), json_value(json::number(value, 6)) {}
Field::Field(std::string_view k, bool value)
    : key(k), json_value(value ? "true" : "false") {}

void open(const std::string& path, const Options& options) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.out.is_open()) {
    g_enabled.store(false, std::memory_order_relaxed);
    s.out.close();
  }
  s.out.open(path, std::ios::app);
  if (!s.out) throw IoError("cannot open event log: " + path);
  s.options = options;
  s.tokens = options.burst;
  s.last_refill = std::chrono::steady_clock::now();
  s.seq = 0;
  s.emitted = 0;
  s.pending_suppressed = 0;
  g_emitted.store(0, std::memory_order_relaxed);
  g_suppressed.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void close() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  g_enabled.store(false, std::memory_order_relaxed);
  if (s.out.is_open()) {
    s.out.flush();
    s.out.close();
  }
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void emit(Severity severity, std::string_view event,
          std::initializer_list<Field> fields) {
  if (!enabled()) return;
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.out.is_open()) return;  // raced with close()
  if (severity < s.options.min_severity) return;
  if (!admit(s, severity)) {
    ++s.pending_suppressed;
    g_suppressed.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter& suppressed_records =
        metrics::counter("eventlog.suppressed");
    suppressed_records.add();
    return;
  }
  std::string line = "{\"ts_us\": " + std::to_string(wall_micros()) +
                     ", \"seq\": " + std::to_string(s.seq++) +
                     ", \"severity\": \"" + to_string(severity) +
                     "\", \"event\": " + json::escape(event);
  for (const Field& field : fields) {
    line += ", ";
    json::append_escaped(line, field.key);
    line += ": " + field.json_value;
  }
  if (s.pending_suppressed != 0) {
    line += ", \"suppressed\": " + std::to_string(s.pending_suppressed);
    s.pending_suppressed = 0;
  }
  line += "}\n";
  // Flush per record: the log exists to be tailed, and the token bucket
  // already bounds the write rate.
  s.out << line << std::flush;
  ++s.emitted;
  g_emitted.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter& emitted_records =
      metrics::counter("eventlog.emitted");
  emitted_records.add();
}

std::uint64_t emitted() { return g_emitted.load(std::memory_order_relaxed); }

std::uint64_t suppressed() {
  return g_suppressed.load(std::memory_order_relaxed);
}

}  // namespace sscor::eventlog
