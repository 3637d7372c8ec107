// Unit tests for sscor/flow: the flow model, clock adjustment, capture
// synthesis, and flow extraction.

#include <gtest/gtest.h>

#include <sstream>

#include "sscor/flow/clock_model.hpp"
#include "sscor/flow/flow.hpp"
#include "sscor/flow/flow_extractor.hpp"
#include "sscor/flow/pcap_synth.hpp"
#include "sscor/net/headers.hpp"
#include "sscor/pcap/pcap_reader.hpp"
#include "sscor/util/error.hpp"

namespace sscor {
namespace {

Flow flow_of(std::initializer_list<TimeUs> timestamps) {
  return Flow::from_timestamps(std::vector<TimeUs>(timestamps));
}

TEST(Flow, SortsOnConstruction) {
  Flow flow({PacketRecord{30, 1, false}, PacketRecord{10, 2, false},
             PacketRecord{20, 3, false}},
            "f");
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.timestamp(0), 10);
  EXPECT_EQ(flow.timestamp(1), 20);
  EXPECT_EQ(flow.timestamp(2), 30);
  EXPECT_EQ(flow.id(), "f");
}

TEST(Flow, StableSortKeepsEqualTimestampOrder) {
  Flow flow({PacketRecord{10, 1, false}, PacketRecord{10, 2, false}});
  EXPECT_EQ(flow.packet(0).size, 1u);
  EXPECT_EQ(flow.packet(1).size, 2u);

  // Unsorted input with ties: the sort runs and keeps each tie in input
  // order.
  Flow unsorted({PacketRecord{30, 1, false}, PacketRecord{10, 2, false},
                 PacketRecord{30, 3, false}, PacketRecord{10, 4, false},
                 PacketRecord{20, 5, false}});
  std::vector<std::uint32_t> sizes;
  for (std::size_t i = 0; i < unsorted.size(); ++i) {
    sizes.push_back(unsorted.packet(i).size);
  }
  EXPECT_EQ(sizes, (std::vector<std::uint32_t>{2, 4, 5, 1, 3}));
  EXPECT_EQ(unsorted.timestamps(), (std::vector<TimeUs>{10, 10, 20, 30, 30}));
}

TEST(Flow, BasicAccessors) {
  const Flow flow = flow_of({100, 300, 900});
  EXPECT_EQ(flow.start_time(), 100);
  EXPECT_EQ(flow.end_time(), 900);
  EXPECT_EQ(flow.duration(), 800);
  EXPECT_EQ(flow.ipd(0), 200);
  EXPECT_EQ(flow.ipd(1), 600);
  EXPECT_THROW(flow.ipd(2), InvalidArgument);
  EXPECT_EQ(flow.timestamps(), (std::vector<TimeUs>{100, 300, 900}));
}

TEST(Flow, EmptyFlowGuards) {
  const Flow empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.duration(), 0);
  EXPECT_THROW(empty.start_time(), InvalidArgument);
  EXPECT_THROW(empty.end_time(), InvalidArgument);
}

TEST(Flow, Stats) {
  const Flow flow = flow_of({0, seconds(std::int64_t{1}),
                             seconds(std::int64_t{2}),
                             seconds(std::int64_t{4})});
  const FlowStats stats = flow.stats();
  EXPECT_EQ(stats.packets, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_rate_pps, 1.0);
  EXPECT_NEAR(stats.mean_ipd_seconds, 4.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.median_ipd_seconds, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_ipd_seconds, 2.0);
}

TEST(Flow, ShiftedAndAppend) {
  Flow flow = flow_of({10, 20});
  const Flow shifted = flow.shifted(5);
  EXPECT_EQ(shifted.timestamp(0), 15);
  EXPECT_EQ(shifted.timestamp(1), 25);
  flow.append(PacketRecord{30, 0, false});
  EXPECT_EQ(flow.size(), 3u);
  EXPECT_THROW(flow.append(PacketRecord{5, 0, false}), InvalidArgument);
}

TEST(Flow, MergePreservesOrderAndChaffFlags) {
  Flow a({PacketRecord{10, 1, false}, PacketRecord{30, 1, false}});
  Flow b({PacketRecord{20, 2, true}});
  const Flow merged = merge_flows(a, b, "m");
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.timestamp(1), 20);
  EXPECT_TRUE(merged.packet(1).is_chaff);
  EXPECT_EQ(merged.chaff_count(), 1u);
  EXPECT_EQ(merged.id(), "m");
}

TEST(ClockModel, IdentityIsNoOp) {
  const auto clock = ClockModel::identity();
  EXPECT_EQ(clock.to_reference(123456), 123456);
  EXPECT_EQ(clock.to_remote(123456), 123456);
}

TEST(ClockModel, OffsetOnly) {
  const ClockModel clock(millis(250), 0.0);
  EXPECT_EQ(clock.to_reference(millis(1000)), millis(750));
  EXPECT_EQ(clock.to_remote(millis(750)), millis(1000));
}

TEST(ClockModel, DriftRoundTrip) {
  const ClockModel clock(seconds(std::int64_t{2}), 50.0, 0);
  for (const TimeUs t : {TimeUs{0}, seconds(std::int64_t{100}),
                         seconds(std::int64_t{100'000})}) {
    const TimeUs remote = clock.to_remote(t);
    EXPECT_NEAR(static_cast<double>(clock.to_reference(remote)),
                static_cast<double>(t), 1.0);
  }
}

TEST(ClockModel, AdjustFlow) {
  const ClockModel clock(millis(100), 0.0);
  const Flow flow = flow_of({millis(100), millis(300)});
  const Flow adjusted = clock.adjust(flow);
  EXPECT_EQ(adjusted.timestamp(0), 0);
  EXPECT_EQ(adjusted.timestamp(1), millis(200));
}

TEST(Synthesis, CaptureRoundTripThroughExtractor) {
  // Two flows with distinct five-tuples; sizes >= 1 so the payload-only
  // extractor keeps them.
  Flow a({PacketRecord{1'000, 32, false}, PacketRecord{3'000, 48, false},
          PacketRecord{5'000, 32, false}});
  Flow b({PacketRecord{2'000, 16, false}, PacketRecord{4'000, 16, false}});
  const net::FiveTuple ta{net::Ipv4Address::parse("10.0.0.1"),
                          net::Ipv4Address::parse("10.0.0.2"), 1111, 22,
                          net::IpProtocol::kTcp};
  const net::FiveTuple tb{net::Ipv4Address::parse("10.0.0.3"),
                          net::Ipv4Address::parse("10.0.0.4"), 2222, 22,
                          net::IpProtocol::kTcp};

  const auto records =
      synthesize_capture({SynthesisInput{ta, &a}, SynthesisInput{tb, &b}});
  ASSERT_EQ(records.size(), 5u);
  // Interleaved by timestamp.
  EXPECT_EQ(records[0].timestamp, 1'000);
  EXPECT_EQ(records[1].timestamp, 2'000);

  const auto flows = extract_flows(records, pcap::LinkType::kRawIp);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].tuple, ta);
  EXPECT_EQ(flows[0].flow.size(), 3u);
  EXPECT_EQ(flows[0].flow.timestamp(1), 3'000);
  EXPECT_EQ(flows[0].flow.packet(1).size, 48u);
  EXPECT_EQ(flows[1].tuple, tb);
  EXPECT_EQ(flows[1].flow.size(), 2u);
}

TEST(Synthesis, WritesValidPcapFile) {
  Flow a({PacketRecord{1'000, 32, false}, PacketRecord{2'000, 32, false}});
  const net::FiveTuple tuple{net::Ipv4Address::parse("10.0.0.1"),
                             net::Ipv4Address::parse("10.0.0.2"), 1111, 22,
                             net::IpProtocol::kTcp};
  const std::string path = testing::TempDir() + "/sscor_synth_test.pcap";
  write_capture_file(path, {SynthesisInput{tuple, &a}});

  const auto flows = extract_flows_from_file(path);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow.size(), 2u);
  // The packets inside must carry valid checksums.
  const auto records = pcap::read_pcap_file(path);
  for (const auto& record : records) {
    EXPECT_TRUE(net::verify_ipv4_checksum(record.data));
    EXPECT_TRUE(net::verify_tcp_checksum(record.data));
  }
}

TEST(Extractor, FiltersControlAndEmptyPackets) {
  const net::FiveTuple tuple{net::Ipv4Address::parse("10.0.0.1"),
                             net::Ipv4Address::parse("10.0.0.2"), 1111, 22,
                             net::IpProtocol::kTcp};
  std::vector<pcap::Record> records;
  auto push = [&](TimeUs ts, std::uint8_t flags, std::size_t payload) {
    pcap::Record r;
    r.timestamp = ts;
    r.data = net::encode_tcp_packet(tuple, 1, 1, flags, payload);
    r.original_length = static_cast<std::uint32_t>(r.data.size());
    records.push_back(std::move(r));
  };
  push(1, net::kTcpSyn, 0);             // control: skipped
  push(2, net::kTcpAck, 0);             // empty ACK: skipped
  push(3, net::kTcpAck | net::kTcpPsh, 8);
  push(4, net::kTcpAck | net::kTcpPsh, 8);
  push(5, net::kTcpFin | net::kTcpAck, 0);  // control: skipped

  const auto flows = extract_flows(records, pcap::LinkType::kRawIp);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow.size(), 2u);

  ExtractorOptions keep_all;
  keep_all.payload_only = false;
  keep_all.skip_control = false;
  keep_all.min_packets = 1;
  const auto all = extract_flows(records, pcap::LinkType::kRawIp, keep_all);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].flow.size(), 5u);
}

TEST(Extractor, MinPacketsDropsTinyFlows) {
  const net::FiveTuple tuple{net::Ipv4Address::parse("10.0.0.1"),
                             net::Ipv4Address::parse("10.0.0.2"), 1111, 22,
                             net::IpProtocol::kTcp};
  pcap::Record r;
  r.timestamp = 1;
  r.data = net::encode_tcp_packet(tuple, 1, 1, net::kTcpPsh, 4);
  const auto flows = extract_flows({r}, pcap::LinkType::kRawIp);
  EXPECT_TRUE(flows.empty());  // default min_packets = 2
}

TEST(Extractor, SkipsNonIpv4Records) {
  pcap::Record garbage;
  garbage.timestamp = 1;
  garbage.data = {0x00, 0x01, 0x02};
  EXPECT_TRUE(extract_flows({garbage}, pcap::LinkType::kRawIp).empty());
  EXPECT_TRUE(extract_flows({garbage}, pcap::LinkType::kEthernet).empty());
}

}  // namespace
}  // namespace sscor
