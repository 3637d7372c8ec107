// Prometheus text exposition rendering of a metrics snapshot.
//
// The /metrics endpoint of the streaming daemon speaks the Prometheus text
// exposition format (version 0.0.4) so any off-the-shelf scraper can
// consume the registry.  Mapping:
//
//   counter  c        -> sscor_<c>_total                (TYPE counter)
//   gauge    g        -> sscor_<g>                      (TYPE gauge)
//   histogram h       -> sscor_<h>_bucket{le="..."} cumulative buckets,
//                        sscor_<h>_sum, sscor_<h>_count (TYPE histogram)
//                        plus sscor_<h>_quantile{q="0.5"|"0.95"|"0.99"}
//                        gauges (the registry's deterministic
//                        bucket-lower-bound percentiles)
//
// A timed phase is a histogram of microseconds (metrics::ScopedTimer), so
// sscor_<phase>_us_sum / _count give its total time and invocations.
// Rendering is a pure read of the registry: rates are the consumer's to
// take, e.g. rate(sscor_stream_packets_ingested_total[1m]) in Prometheus
// (sscor_tool top takes its own from /statusz), so any number of scrapers
// see the same series.
//
// Registry names are sanitized ([^a-zA-Z0-9_] -> '_'); the original name
// is preserved in the HELP line.  `le` labels carry each log-linear
// bucket's inclusive upper bound; empty tail buckets are elided (the
// "+Inf" bucket always present), so a histogram costs at most its
// populated prefix.

#pragma once

#include <string>
#include <string_view>

#include "sscor/util/metrics.hpp"

namespace sscor::metrics {

/// `name` with every character outside [a-zA-Z0-9_] replaced by '_'.
std::string prometheus_name(std::string_view name);

/// Renders the whole snapshot as Prometheus text exposition format.
std::string render_prometheus(const Snapshot& snap);

}  // namespace sscor::metrics
