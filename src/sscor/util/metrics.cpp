#include "sscor/util/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "sscor/util/json.hpp"

namespace sscor::metrics {
namespace {

// Node-based maps keep the handed-out references valid forever.  The mutex
// guards every lookup, registration and snapshot; the add() paths behind a
// handle never take it, so a hot call site binds its handle once instead of
// looking it up per event.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Snapshot snapshot() {
  Registry& r = registry();
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(r.mutex);
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& [name, c] : r.counters) c->reset();
  for (const auto& [name, h] : r.histograms) h->reset();
  for (const auto& [name, g] : r.gauges) g->reset();
}

TextTable Snapshot::to_table() const {
  TextTable table({"kind", "name", "count", "value", "p50", "p95", "p99"});
  for (const auto& c : counters) {
    table.add_row({"counter", c.name, TextTable::cell(c.value), "", "", "",
                   ""});
  }
  for (const auto& g : gauges) {
    table.add_row({"gauge", g.name, "", TextTable::cell(g.value), "", "",
                   ""});
  }
  for (const auto& h : histograms) {
    table.add_row({"hist", h.name, TextTable::cell(h.data.count),
                   TextTable::cell(h.data.mean(), 1),
                   TextTable::cell(h.data.percentile(0.50)),
                   TextTable::cell(h.data.percentile(0.95)),
                   TextTable::cell(h.data.percentile(0.99))});
  }
  return table;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_escaped(out, c.name);
    out += ": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_escaped(out, h.name);
    out += ": {\"count\": " + std::to_string(h.data.count) +
           ", \"sum\": " + std::to_string(h.data.sum) +
           ", \"mean\": " + json::number(h.data.mean(), 3) +
           ", \"p50\": " + std::to_string(h.data.percentile(0.50)) +
           ", \"p95\": " + std::to_string(h.data.percentile(0.95)) +
           ", \"p99\": " + std::to_string(h.data.percentile(0.99)) +
           ", \"max\": " + std::to_string(h.data.max) + "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_escaped(out, g.name);
    out += ": " + std::to_string(g.value);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace sscor::metrics
