// Watermark secret serialization.
//
// The embedding side and the detection side share three secrets: the
// watermark parameters, the key (which locates the embedding packets), and
// the embedded bit string.  WatermarkSecret bundles them and (de)serializes
// a one-field-per-line text format, so the two sides can be separate
// processes/machines (see tools/sscor_tool.cpp).  Reading is strict: every
// line is exactly "name value", each of the six fields below appears once,
// and a number is decimal or hex after 0x and fits its field
// (util/parse.hpp).
//
//   # sscor-key v1
//   bits 24
//   redundancy 4
//   pair_offset 1
//   embedding_delay_us 600000
//   key 0xfeedface
//   watermark 101101...

#pragma once

#include <iosfwd>
#include <string>

#include "sscor/watermark/key_schedule.hpp"
#include "sscor/watermark/params.hpp"
#include "sscor/watermark/watermark.hpp"

namespace sscor {

struct WatermarkSecret {
  WatermarkParams params;
  std::uint64_t key = 0;
  Watermark watermark;

  /// Re-derives the schedule for a flow of `flow_length` packets (the
  /// detection side of a deployment).
  KeySchedule schedule_for(std::size_t flow_length) const {
    return KeySchedule::create(params, flow_length, key);
  }
};

void write_secret_text(std::ostream& out, const WatermarkSecret& secret);
void write_secret_file(const std::string& path,
                       const WatermarkSecret& secret);

/// Throws IoError on malformed input, naming what it refused: a bad line; a
/// field that is unknown, repeated or missing; a number that does not fit
/// its field, or a parameter below 1; a watermark that is not binary or
/// whose length is not `bits`.
WatermarkSecret read_secret_text(std::istream& in);
WatermarkSecret read_secret_file(const std::string& path);

}  // namespace sscor
