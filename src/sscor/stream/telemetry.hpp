// The live ops surface of the streaming daemon: /metrics, /healthz,
// /statusz.
//
// StreamTelemetry glues the three observer-only layers together — the
// metrics registry (counters/gauges/histograms), the engine's published
// EngineStatus, and the HTTP stats server — into the endpoints an operator
// or scraper consumes:
//
//   /metrics  Prometheus text exposition of the whole registry, a pure
//             read: rates are the scraper's to take, so any number of
//             scrapers see the same series;
//   /healthz  liveness + overload state: "ok" until a pressure eviction
//             (flow-count or memory bound) happened within the overload
//             window, then "overloaded" until the window drains;
//   /statusz  one JSON document for humans and `sscor_tool top`: uptime,
//             per-shard flow/buffer/verdict tallies, verdict totals and
//             the hottest flows from the last engine publish.
//
// Everything here reads atomics or mutex-guarded copies; nothing touches
// shard-owned state, so scraping is safe at any moment of a run and
// cannot change any correlation output (the determinism parity check in
// tools/run_checks.sh pins exactly that).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "sscor/net/stats_server.hpp"
#include "sscor/stream/socket_source.hpp"
#include "sscor/stream/stream_engine.hpp"

namespace sscor::stream {

class StreamTelemetry {
 public:
  /// /healthz reports "overloaded" while the last pressure eviction is
  /// younger than this many seconds.
  static constexpr double kOverloadWindowS = 5.0;

  explicit StreamTelemetry(StreamEngine& engine);

  StreamTelemetry(const StreamTelemetry&) = delete;
  StreamTelemetry& operator=(const StreamTelemetry&) = delete;

  /// Binds `host:port` (port 0 = ephemeral; read back via port()) and
  /// starts serving the three endpoints.  Throws IoError on bind failure.
  void start(const std::string& host, std::uint16_t port);
  void stop();
  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }
  std::uint64_t requests_served() const { return server_.requests_served(); }

  /// Endpoint bodies, exposed directly so tests and tools can render
  /// without a socket.  All three are pure reads.
  std::string metrics_text() const;
  std::string statusz_json() const;
  std::string healthz_json() const;

  /// True while the engine's last pressure eviction is inside the window.
  bool overloaded() const;

  /// Marks the daemon as draining (a shutdown signal arrived; the final
  /// flush/snapshot is in progress).  /healthz switches to "draining" so
  /// a load balancer stops routing new work while the drain completes.
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Wires the live packet source's counters into /healthz (optional;
  /// file-feed daemons have no socket source).  The provider must be
  /// thread-safe — it is called from the stats-server thread.
  void set_source_stats_provider(std::function<SocketSourceStats()> provider) {
    const std::lock_guard<std::mutex> lock(source_mutex_);
    source_stats_ = std::move(provider);
  }

 private:
  double uptime_seconds() const;

  StreamEngine& engine_;
  net::StatsServer server_;
  std::int64_t start_us_ = 0;  ///< steady-clock birth of this surface
  std::atomic<bool> draining_{false};
  mutable std::mutex source_mutex_;  ///< guards the provider swap
  std::function<SocketSourceStats()> source_stats_;
};

}  // namespace sscor::stream
