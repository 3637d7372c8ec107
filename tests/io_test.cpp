// Tests for the serialization layers: flow text I/O and watermark key
// files.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sscor/flow/flow_io.hpp"
#include "sscor/traffic/interactive_model.hpp"
#include "sscor/util/error.hpp"
#include "sscor/watermark/key_file.hpp"

namespace sscor {
namespace {

TEST(FlowIo, RoundTripPreservesEverything) {
  Flow flow({PacketRecord{100, 32, false}, PacketRecord{2'000'000, 48, true},
             PacketRecord{3'500'000, 16, false}},
            "trace-7");
  std::stringstream stream;
  write_flow_text(stream, flow);
  const Flow back = read_flow_text(stream);
  EXPECT_EQ(back.id(), "trace-7");
  ASSERT_EQ(back.size(), flow.size());
  for (std::size_t i = 0; i < flow.size(); ++i) {
    EXPECT_EQ(back.packet(i), flow.packet(i));
  }
}

TEST(FlowIo, FileRoundTrip) {
  const traffic::InteractiveSessionModel model;
  const Flow flow = model.generate(200, 0, 5);
  const std::string path = testing::TempDir() + "/sscor_flow_io.txt";
  write_flow_file(path, flow);
  const Flow back = read_flow_file(path);
  EXPECT_EQ(back.timestamps(), flow.timestamps());
}

TEST(FlowIo, EmptyFlowAndNoId) {
  std::stringstream stream;
  write_flow_text(stream, Flow{});
  const Flow back = read_flow_text(stream);
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(back.id().empty());
}

TEST(FlowIo, CommentsAndBlankLinesIgnored) {
  std::stringstream stream(
      "# sscor-flow v1 x\n\n# a comment\n10 1 0\n20 2 1\n");
  const Flow back = read_flow_text(stream);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back.packet(1).is_chaff);
}

TEST(FlowIo, RejectsMalformedInput) {
  {
    std::stringstream s("not a flow\n");
    EXPECT_THROW(read_flow_text(s), IoError);
  }
  {
    std::stringstream s("# sscor-flow v1\n10 abc 0\n");
    EXPECT_THROW(read_flow_text(s), IoError);
  }
  {
    std::stringstream s("# sscor-flow v1\n10 1 7\n");
    EXPECT_THROW(read_flow_text(s), IoError);
  }
  {
    std::stringstream s("# sscor-flow v1\n20 1 0\n10 1 0\n");
    EXPECT_THROW(read_flow_text(s), IoError);  // decreasing timestamps
  }
  EXPECT_THROW(read_flow_file("/nonexistent/flow.txt"), IoError);
}

TEST(FlowIo, RejectsTrailingTokens) {
  // Regression: trailing garbage after the chaff field used to be silently
  // accepted, so a corrupt or concatenated file parsed as a valid flow.
  for (const char* line : {"10 1 0 junk\n", "10 1 0 0\n", "10 1 1 10 1 1\n"}) {
    std::stringstream s(std::string("# sscor-flow v1\n") + line);
    EXPECT_THROW(read_flow_text(s), IoError) << "line: " << line;
  }
}

TEST(FlowIo, RejectsNegativeSize) {
  // Regression: a negative size extracted into the unsigned field used to
  // wrap modulo 2^32 without setting failbit, producing a ~4-billion-byte
  // "packet".  An explicit sign on the chaff flag must fail too.
  for (const char* line : {"10 -5 0\n", "10 -0 0\n", "10 1 -1\n"}) {
    std::stringstream s(std::string("# sscor-flow v1\n") + line);
    EXPECT_THROW(read_flow_text(s), IoError) << "line: " << line;
  }
  // Negative timestamps stay legal (the epoch is arbitrary).
  std::stringstream ok("# sscor-flow v1\n-10 1 0\n-5 2 1\n");
  const Flow flow = read_flow_text(ok);
  ASSERT_EQ(flow.size(), 2u);
  EXPECT_EQ(flow.packet(0).timestamp, -10);
  EXPECT_TRUE(flow.packet(1).is_chaff);
}

TEST(KeyFile, RoundTrip) {
  WatermarkSecret secret;
  secret.params.bits = 24;
  secret.params.redundancy = 4;
  secret.params.pair_offset = 2;
  secret.params.embedding_delay = millis(600);
  secret.key = 0xdeadbeefcafeULL;
  Rng rng(1);
  secret.watermark = Watermark::random(24, rng);

  std::stringstream stream;
  write_secret_text(stream, secret);
  const WatermarkSecret back = read_secret_text(stream);
  EXPECT_EQ(back.params.bits, secret.params.bits);
  EXPECT_EQ(back.params.redundancy, secret.params.redundancy);
  EXPECT_EQ(back.params.pair_offset, secret.params.pair_offset);
  EXPECT_EQ(back.params.embedding_delay, secret.params.embedding_delay);
  EXPECT_EQ(back.key, secret.key);
  EXPECT_EQ(back.watermark, secret.watermark);

  // The re-derived schedule matches the embedding side's.
  const auto a = secret.schedule_for(1000);
  const auto b = back.schedule_for(1000);
  EXPECT_EQ(a.relevant_packets(), b.relevant_packets());
}

TEST(KeyFile, FileRoundTrip) {
  WatermarkSecret secret;
  secret.key = 42;
  Rng rng(2);
  secret.watermark = Watermark::random(secret.params.bits, rng);
  const std::string path = testing::TempDir() + "/sscor_key.txt";
  write_secret_file(path, secret);
  EXPECT_EQ(read_secret_file(path).key, 42u);
}

TEST(KeyFile, RejectsMalformedInput) {
  {
    std::stringstream s("wrong header\n");
    EXPECT_THROW(read_secret_text(s), IoError);
  }
  {
    std::stringstream s("# sscor-key v1\nbits 24\n");  // missing fields
    EXPECT_THROW(read_secret_text(s), IoError);
  }
  {
    std::stringstream s(
        "# sscor-key v1\nbits xx\nredundancy 1\npair_offset 1\n"
        "embedding_delay_us 1000\nkey 1\nwatermark 1010\n");
    EXPECT_THROW(read_secret_text(s), IoError);
  }

  // Numbers are decimal, or hex after 0x: "030" is thirty bits, which the
  // 24-bit watermark does not match (read as octal it was 24).
  const std::string rest = "pair_offset 1\nembedding_delay_us 1000\n";
  const std::string w4 = "watermark 1010\n";
  const std::string w24 = "watermark " + std::string(24, '1') + "\n";
  {
    std::stringstream s("# sscor-key v1\nbits 030\nredundancy 1\n" + rest +
                        "key 1\n" + w24);
    EXPECT_THROW(read_secret_text(s), IoError);
  }
  // A number has no sign and fits its field; a parameter is at least 1; a
  // watermark is binary and `bits` long; a line is exactly "name value"; a
  // field appears once and is known.  Each error is an IoError naming what
  // it refused.
  const struct {
    std::string body;
    std::string named;
  } refused[] = {
      {"bits 4294967320\nredundancy 1\n" + rest + "key 1\n" + w24, "bits"},
      {"bits 4\nredundancy 4294967300\n" + rest + "key 1\n" + w4,
       "redundancy"},
      {"bits 4\nredundancy 1\n" + rest + "key -1\n" + w4, "key"},
      {"bits 0\nredundancy 1\n" + rest + "key 1\n" + w4, "bits"},
      {"bits 4\nredundancy 0\n" + rest + "key 1\n" + w4, "redundancy"},
      {"bits 4\nredundancy 1\n" + rest + "key 1\nwatermark 1x10\n",
       "watermark"},
      {"bits 4\nredundancy 1\n" + rest + "key 1\nwatermark 10\n",
       "watermark"},
      {"bits 24 junk\nredundancy 1\n" + rest + "key 1\n" + w24,
       "bits 24 junk"},
      {"bits 8\nbits 4\nredundancy 1\n" + rest + "key 1\n" + w4, "bits"},
      {"bits 4\nredundancy 1\nredundnacy 9\n" + rest + "key 1\n" + w4,
       "redundnacy"},
  };
  for (const auto& c : refused) {
    SCOPED_TRACE(c.body);
    std::stringstream s("# sscor-key v1\n" + c.body);
    std::string what;
    try {
      (void)read_secret_text(s);
    } catch (const IoError& e) {
      what = e.what();
    }
    EXPECT_NE(what.find(c.named), std::string::npos) << what;
  }
}

TEST(KeyFile, RejectsInconsistentSecretOnWrite) {
  WatermarkSecret secret;
  secret.watermark = Watermark::parse("10");  // 2 bits vs params 24
  std::stringstream stream;
  EXPECT_THROW(write_secret_text(stream, secret), InvalidArgument);
}

}  // namespace
}  // namespace sscor
