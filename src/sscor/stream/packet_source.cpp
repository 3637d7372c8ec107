#include "sscor/stream/packet_source.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <thread>

#include "sscor/flow/flow_io.hpp"
#include "sscor/pcap/pcapng_reader.hpp"
#include "sscor/util/error.hpp"

namespace sscor::stream {

CaptureReplaySource::CaptureReplaySource(const std::string& path,
                                         ReplayOptions options)
    : speed_(options.speed) {
  require(options.speed >= 0.0, "replay speed must be non-negative");
  const pcap::LoadedCapture capture = pcap::read_capture_auto(path);
  const IncrementalFlowExtractor extractor(capture.link_type,
                                           options.extractor);
  packets_.reserve(capture.records.size());
  for (const auto& record : capture.records) {
    if (auto classified = extractor.ingest(record)) {
      packets_.push_back(*classified);
    }
  }
  const auto earlier = [](const StreamPacket& a, const StreamPacket& b) {
    return a.packet.timestamp < b.packet.timestamp;
  };
  // Captures are nearly always recorded in time order; sorting sorted
  // input stably changes nothing, so skip it.
  if (!std::is_sorted(packets_.begin(), packets_.end(), earlier)) {
    std::stable_sort(packets_.begin(), packets_.end(), earlier);
  }
  if (!packets_.empty()) first_timestamp_ = packets_.front().packet.timestamp;
}

std::optional<StreamPacket> CaptureReplaySource::next() {
  if (next_ >= packets_.size()) return std::nullopt;
  const StreamPacket& packet = packets_[next_++];
  if (speed_ > 0.0) {
    if (!epoch_) epoch_ = std::chrono::steady_clock::now();
    const double elapsed_capture_us =
        static_cast<double>(packet.packet.timestamp - first_timestamp_);
    const auto offset = std::chrono::microseconds(
        static_cast<std::int64_t>(elapsed_capture_us / speed_));
    std::this_thread::sleep_until(*epoch_ + offset);
  }
  return packet;
}

FlowTextStreamSource::FlowTextStreamSource(std::istream& in) : in_(&in) {
  std::string header;
  if (!std::getline(*in_, header) || header != "# sscor-stream v1") {
    throw IoError("stream text feed: missing '# sscor-stream v1' header");
  }
}

std::optional<StreamPacket> FlowTextStreamSource::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string token;
    std::optional<PacketRecord> packet;
    if (!(fields >> token) || !(packet = read_packet_fields(fields))) {
      throw IoError("stream text feed: malformed packet line " +
                    std::to_string(line_number_) + ": " + line);
    }
    return StreamPacket{tuple_for_token(token), *packet};
  }
  return std::nullopt;
}

net::FiveTuple FlowTextStreamSource::tuple_for_token(
    const std::string& token) {
  // FNV-1a over the token bytes; the 64-bit digest is spread over the
  // tuple fields.  Distinct tokens colliding on the full tuple is as
  // unlikely as a 64-bit hash collision — acceptable for a test feed.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : token) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  net::FiveTuple tuple;
  tuple.src_ip = net::Ipv4Address{static_cast<std::uint32_t>(h >> 32)};
  tuple.dst_ip = net::Ipv4Address{static_cast<std::uint32_t>(h)};
  tuple.src_port = static_cast<std::uint16_t>(h >> 16);
  tuple.dst_port = static_cast<std::uint16_t>(h >> 48);
  tuple.protocol = net::IpProtocol::kTcp;
  return tuple;
}

}  // namespace sscor::stream
