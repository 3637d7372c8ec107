// Run metrics: named monotonic counters, histograms and gauges, and the
// one way to time a phase.
//
// The experiment harness needs a perf trajectory — how many flows were
// generated, how many detector runs executed, how many packets the
// correlators accessed, and how long each phase took — without threading a
// context object through every layer.  A process-wide registry of named
// atomic metrics does that: any layer bumps its counter, the bench front
// ends snapshot the registry and print it as a table or dump it as JSON
// (--metrics-json), and the daemon serves it on /metrics.  A phase's time
// is a histogram of its scopes' microseconds (ScopedTimer), so the
// registry holds no separate timer kind.
//
// Every metric is thread-safe (relaxed atomics; totals are exact,
// order-independent integers).  The registry is one std::map per kind
// behind a single mutex, so every counter()/histogram()/gauge() call
// builds a key string, takes that lock and walks the map.  The references
// it hands out stay valid for the process lifetime, so a call site that
// binds its handle once (a function-local static reference or a member
// bound at construction) pays one relaxed atomic add per event; one that
// looks its name up per event pays the lock and the walk every time.

#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

#include "sscor/util/histogram.hpp"
#include "sscor/util/table.hpp"
#include "sscor/util/trace.hpp"

namespace sscor::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A settable level (current value, not an accumulating total), such as
/// the live flows the engine publishes at flush boundaries.  set() and
/// add() are wait-free relaxed atomics, safe from any thread.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Returns the counter / histogram / gauge registered under `name`,
/// creating it on first use.  References remain valid for the process
/// lifetime.
Counter& counter(const std::string& name);
Histogram& histogram(const std::string& name);
Gauge& gauge(const std::string& name);

/// Times a phase.  On scope exit, an exception's unwind included, it
/// records the scope's wall clock in whole microseconds into a registry
/// histogram; while spans are on (trace::set_spans_enabled) it also
/// records the trace span `span` over the same scope.  The clock is
/// std::chrono::steady_clock (never wall time, which can step).  A site
/// that runs per event binds its histogram once and passes it in; the
/// by-name form, for phases that run a few times per run, looks up the
/// histogram "<name>_us" on every construction.  Span names must be
/// string literals (trace.hpp).
class ScopedTimer {
 public:
  ScopedTimer(Histogram& sink, const char* span)
      : histogram_(sink),
        span_(span),
        start_(std::chrono::steady_clock::now()) {}
  explicit ScopedTimer(const char* name)
      : ScopedTimer(histogram(std::string(name) + "_us"), name) {}
  ~ScopedTimer() noexcept {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  trace::Span span_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of every registered metric, sorted by name so
/// output is stable across runs and thread schedules.
struct Snapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramData data;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  std::vector<CounterEntry> counters;
  std::vector<HistogramEntry> histograms;
  std::vector<GaugeEntry> gauges;

  /// Renders all sections as one table
  /// (kind | name | count | value | p50 | p95 | p99); the percentile
  /// columns are filled for histograms (value = mean) and empty otherwise.
  TextTable to_table() const;
  /// {"counters": {name: value...},
  ///  "histograms": {name: {count, sum, mean, p50, p95, p99, max}...},
  ///  "gauges": {name: value...}}
  std::string to_json() const;
};

Snapshot snapshot();

/// Zeroes every registered metric (test isolation; references stay
/// valid).
void reset();

}  // namespace sscor::metrics
