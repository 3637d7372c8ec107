#include "sscor/stream/telemetry.hpp"

#include <chrono>
#include <utility>

#include "sscor/util/event_log.hpp"
#include "sscor/util/json.hpp"
#include "sscor/util/metrics.hpp"
#include "sscor/util/prometheus.hpp"

namespace sscor::stream {
namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StreamTelemetry::StreamTelemetry(StreamEngine& engine)
    : engine_(engine), start_us_(steady_now_us()) {}

void StreamTelemetry::start(const std::string& host, std::uint16_t port) {
  server_.handle("/metrics", [this](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = metrics_text();
    return response;
  });
  server_.handle("/healthz", [this](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "application/json";
    response.body = healthz_json();
    return response;
  });
  server_.handle("/statusz", [this](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "application/json";
    response.body = statusz_json();
    return response;
  });
  server_.start(host, port);
}

void StreamTelemetry::stop() { server_.stop(); }

std::string StreamTelemetry::metrics_text() const {
  return metrics::render_prometheus(metrics::snapshot());
}

bool StreamTelemetry::overloaded() const {
  const double age = engine_.status().seconds_since_pressure;
  return age >= 0.0 && age < kOverloadWindowS;
}

double StreamTelemetry::uptime_seconds() const {
  return static_cast<double>(steady_now_us() - start_us_) / 1e6;
}

std::string StreamTelemetry::healthz_json() const {
  const EngineStatus status = engine_.status();
  const bool over = status.seconds_since_pressure >= 0.0 &&
                    status.seconds_since_pressure < kOverloadWindowS;
  const bool drain = draining();
  std::string out = "{\"status\": ";
  // Draining outranks overloaded: a load balancer must stop routing to a
  // shutting-down instance even if it is otherwise healthy.
  out += drain ? "\"draining\"" : over ? "\"overloaded\"" : "\"ok\"";
  out += ", \"draining\": ";
  out += drain ? "true" : "false";
  out += ", \"uptime_s\": " + json::number(uptime_seconds(), 3);
  out += ", \"finished\": ";
  out += status.finished ? "true" : "false";
  out += ", \"seconds_since_pressure\": " +
         json::number(status.seconds_since_pressure, 3);
  out += ", \"overload_window_s\": " +
         json::number(kOverloadWindowS, 3);

  // The load-shed policy in force: the table bounds that cut work off
  // under pressure.  Static config, surfaced so an operator reading
  // "overloaded" can see what the daemon sheds and at what thresholds.
  const FlowTableConfig& table = engine_.table().config();
  out += ", \"load_shed\": {\"max_flows\": " +
         std::to_string(table.max_flows);
  out += ", \"max_buffered_packets\": " +
         std::to_string(table.max_buffered_packets);
  out += ", \"idle_ttl_us\": " + std::to_string(table.idle_ttl);
  out += ", \"shedding\": ";
  out += over ? "true" : "false";
  out += "}";

  std::function<SocketSourceStats()> provider;
  {
    const std::lock_guard<std::mutex> lock(source_mutex_);
    provider = source_stats_;
  }
  if (provider) {
    const SocketSourceStats source = provider();
    out += ", \"source\": {\"connected\": ";
    out += source.connected ? "true" : "false";
    out += ", \"connects\": " + std::to_string(source.connects);
    out += ", \"reconnect_attempts\": " +
           std::to_string(source.reconnect_attempts);
    out += ", \"disconnects\": " + std::to_string(source.disconnects);
    out += ", \"frames\": " + std::to_string(source.frames);
    out += ", \"packets\": " + std::to_string(source.packets);
    out += ", \"resyncs\": " + std::to_string(source.resyncs);
    out += ", \"bytes_quarantined\": " +
           std::to_string(source.bytes_quarantined);
    out += ", \"protocol_errors\": " +
           std::to_string(source.protocol_errors);
    out += ", \"ended_cleanly\": ";
    out += source.ended_cleanly ? "true" : "false";
    out += ", \"gave_up\": ";
    out += source.gave_up ? "true" : "false";
    out += "}";
  }
  out += "}\n";
  return out;
}

std::string StreamTelemetry::statusz_json() const {
  const EngineStatus status = engine_.status();
  std::string out = "{\n";
  out += "  \"uptime_s\": " + json::number(uptime_seconds(), 3) + ",\n";
  out += "  \"finished\": ";
  out += status.finished ? "true" : "false";
  out += ",\n";
  out += "  \"packets_ingested\": " +
         std::to_string(status.packets_ingested) + ",\n";
  out += "  \"flows_live\": " + std::to_string(status.flows_live) + ",\n";
  out += "  \"buffered_packets\": " +
         std::to_string(status.buffered_packets) + ",\n";
  out += "  \"upstreams\": " + std::to_string(status.upstreams) + ",\n";
  out += "  \"seconds_since_pressure\": " +
         json::number(status.seconds_since_pressure, 3) + ",\n";

  const std::uint64_t total = status.verdicts_positive +
                              status.verdicts_negative +
                              status.verdicts_evicted +
                              status.verdicts_degraded;
  out += "  \"verdicts\": {";
  out += "\"total\": " + std::to_string(total);
  out += ", \"positive\": " + std::to_string(status.verdicts_positive);
  out += ", \"negative\": " + std::to_string(status.verdicts_negative);
  out += ", \"evicted\": " + std::to_string(status.verdicts_evicted);
  out += ", \"degraded\": " + std::to_string(status.verdicts_degraded);
  out += ", \"early\": " + std::to_string(status.verdicts_early);
  out += "},\n";

  out += "  \"shards\": [";
  for (std::size_t i = 0; i < status.shards.size(); ++i) {
    if (i > 0) out += ", ";
    const EngineStatus::Shard& shard = status.shards[i];
    out += "{\"shard\": " + std::to_string(i);
    out += ", \"flows\": " + std::to_string(shard.flows);
    out += ", \"buffered_packets\": " +
           std::to_string(shard.buffered_packets);
    out += ", \"verdicts\": " + std::to_string(shard.verdicts);
    out += "}";
  }
  out += "],\n";

  out += "  \"hottest\": [";
  for (std::size_t i = 0; i < status.hottest.size(); ++i) {
    if (i > 0) out += ", ";
    const EngineStatus::HotFlow& flow = status.hottest[i];
    out += "{\"tuple\": " + json::escape(flow.tuple);
    out += ", \"flow_seq\": " + std::to_string(flow.flow_seq);
    out += ", \"packets\": " + std::to_string(flow.packets);
    out += ", \"buffered\": " + std::to_string(flow.buffered);
    out += "}";
  }
  out += "],\n";

  out += "  \"eventlog\": {\"enabled\": ";
  out += eventlog::enabled() ? "true" : "false";
  out += ", \"emitted\": " + std::to_string(eventlog::emitted());
  out += ", \"suppressed\": " + std::to_string(eventlog::suppressed());
  out += "},\n";
  out += "  \"stats_requests_served\": " +
         std::to_string(server_.requests_served()) + "\n";
  out += "}\n";
  return out;
}

}  // namespace sscor::stream
