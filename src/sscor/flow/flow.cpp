#include "sscor/flow/flow.hpp"

#include <algorithm>

#include "sscor/util/error.hpp"
#include "sscor/util/stats.hpp"

namespace sscor {

Flow::Flow(std::vector<PacketRecord> packets, std::string id)
    : packets_(std::move(packets)), id_(std::move(id)) {
  const auto earlier = [](const PacketRecord& a, const PacketRecord& b) {
    return a.timestamp < b.timestamp;
  };
  // Most inputs arrive in order; a stable sort of sorted input is the
  // identity, so the check alone decides the result.
  if (!std::is_sorted(packets_.begin(), packets_.end(), earlier)) {
    std::stable_sort(packets_.begin(), packets_.end(), earlier);
  }
  rebuild_timestamp_cache();
}

void Flow::rebuild_timestamp_cache() {
  timestamps_.resize(packets_.size());
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    timestamps_[i] = packets_[i].timestamp;
  }
}

Flow Flow::from_timestamps(std::span<const TimeUs> timestamps,
                           std::string id) {
  std::vector<PacketRecord> packets;
  packets.reserve(timestamps.size());
  for (TimeUs t : timestamps) {
    packets.push_back(PacketRecord{t, 0, false});
  }
  return Flow(std::move(packets), std::move(id));
}

TimeUs Flow::start_time() const {
  require(!packets_.empty(), "start_time of an empty flow");
  return packets_.front().timestamp;
}

TimeUs Flow::end_time() const {
  require(!packets_.empty(), "end_time of an empty flow");
  return packets_.back().timestamp;
}

DurationUs Flow::duration() const {
  return packets_.empty() ? 0 : end_time() - start_time();
}

DurationUs Flow::ipd(std::size_t i) const {
  require(i + 1 < packets_.size(), "ipd index out of range");
  return packets_[i + 1].timestamp - packets_[i].timestamp;
}

FlowStats Flow::stats() const {
  FlowStats s;
  s.packets = packets_.size();
  if (packets_.size() < 2) return s;
  s.duration = duration();
  s.mean_rate_pps =
      static_cast<double>(packets_.size()) / to_seconds(s.duration);
  std::vector<double> ipds;
  ipds.reserve(packets_.size() - 1);
  RunningStats acc;
  for (std::size_t i = 0; i + 1 < packets_.size(); ++i) {
    const double v = to_seconds(ipd(i));
    ipds.push_back(v);
    acc.add(v);
  }
  s.mean_ipd_seconds = acc.mean();
  s.max_ipd_seconds = acc.max();
  s.median_ipd_seconds = quantile(std::move(ipds), 0.5);
  return s;
}

std::size_t Flow::chaff_count() const {
  return static_cast<std::size_t>(
      std::count_if(packets_.begin(), packets_.end(),
                    [](const PacketRecord& p) { return p.is_chaff; }));
}

Flow Flow::shifted(DurationUs delta) const {
  std::vector<PacketRecord> packets = packets_;
  for (auto& p : packets) p.timestamp += delta;
  Flow out;
  out.packets_ = std::move(packets);  // order preserved by a uniform shift
  out.rebuild_timestamp_cache();
  out.id_ = id_;
  return out;
}

void Flow::append(PacketRecord packet) {
  require(packets_.empty() || packet.timestamp >= packets_.back().timestamp,
          "append would violate timestamp ordering");
  packets_.push_back(packet);
  timestamps_.push_back(packet.timestamp);
}

void AppendOnlyFlow::append(PacketRecord packet) {
  require(packets_.empty() || packet.timestamp >= packets_.back().timestamp,
          "append would violate timestamp ordering");
  packets_.push_back(packet);
}

TimeUs AppendOnlyFlow::last_timestamp() const {
  require(!packets_.empty(), "last_timestamp of an empty buffer");
  return packets_.back().timestamp;
}

Flow AppendOnlyFlow::to_flow(std::string id) const {
  return Flow(packets_, std::move(id));
}

void AppendOnlyFlow::release() {
  packets_.clear();
  packets_.shrink_to_fit();
}

Flow merge_flows(const Flow& a, const Flow& b, std::string id) {
  std::vector<PacketRecord> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.packets().begin(), a.packets().end(), b.packets().begin(),
             b.packets().end(), std::back_inserter(merged),
             [](const PacketRecord& x, const PacketRecord& y) {
               return x.timestamp < y.timestamp;
             });
  Flow out(std::move(merged), std::move(id));
  return out;
}

}  // namespace sscor
