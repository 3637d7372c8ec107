#include "sscor/util/prometheus.hpp"

#include "sscor/util/histogram.hpp"

namespace sscor::metrics {
namespace {

void append_family_header(std::string& out, const std::string& family,
                          std::string_view original, const char* kind,
                          const char* type) {
  out += "# HELP " + family + " sscor " + kind + " ";
  out += original;
  out += "\n# TYPE " + family + " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string render_prometheus(const Snapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string family = "sscor_" + prometheus_name(c.name) + "_total";
    append_family_header(out, family, c.name, "counter", "counter");
    out += family + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string family = "sscor_" + prometheus_name(g.name);
    append_family_header(out, family, g.name, "gauge", "gauge");
    out += family + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string family = "sscor_" + prometheus_name(h.name);
    append_family_header(out, family, h.name, "histogram", "histogram");
    // Cumulative counts over the populated bucket prefix.  Bucket i covers
    // [lower_bound(i), lower_bound(i+1)), so its inclusive integer upper
    // bound is lower_bound(i+1) - 1.
    std::uint32_t last = 0;
    for (std::uint32_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.data.buckets[i] != 0) last = i + 1;
    }
    std::uint64_t cumulative = 0;
    for (std::uint32_t i = 0; i < last; ++i) {
      cumulative += h.data.buckets[i];
      const std::uint64_t upper =
          i + 1 < kHistogramBuckets
              ? histogram_bucket_lower_bound(i + 1) - 1
              : h.data.max;
      out += family + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " + std::to_string(h.data.count) +
           "\n";
    out += family + "_sum " + std::to_string(h.data.sum) + "\n";
    out += family + "_count " + std::to_string(h.data.count) + "\n";
    const std::string quantile = family + "_quantile";
    append_family_header(out, quantile, h.name, "histogram quantiles",
                         "gauge");
    static constexpr struct {
      const char* label;
      double q;
    } kQuantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
    for (const auto& [label, q] : kQuantiles) {
      out += quantile + "{q=\"" + label + "\"} " +
             std::to_string(h.data.percentile(q)) + "\n";
    }
  }
  return out;
}

}  // namespace sscor::metrics
