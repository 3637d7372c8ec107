// Minimal JSON reader for the ops tooling.
//
// The repo emits JSON in many places (metrics snapshots, traces, the
// /statusz endpoint) and reads some of it back: `sscor_tool top` polls
// /statusz, the daemon decodes its WAL and snapshots, trace_check
// validates every emitted file, and the telemetry tests assert endpoint
// schemas.  This is a strict recursive-descent RFC 8259 subset matching
// exactly what util/json emits: objects, arrays, strings with the short
// escapes plus \u00XX, numbers, true/false/null, with arrays and objects
// nested at most 256 deep.  Failures throw ParseError (an
// InvalidArgument) with the offset where parsing stopped.
// Not built for speed or huge documents — /statusz is a few kilobytes.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sscor/util/error.hpp"

namespace sscor::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors: throw InvalidArgument when the value has a
  /// different type.
  bool as_bool() const;
  double as_number() const;
  /// The exact value of an integer literal (no fraction, no exponent) in
  /// range of the type; any other number throws InvalidArgument rather
  /// than round or truncate.
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  /// Object member access; `at` throws on a missing key, `find` returns
  /// nullptr.
  const Value& at(const std::string& key) const;
  const Value* find(const std::string& key) const;
  /// at(key) with a fallback for missing members (not for type errors).
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  double number_or(const std::string& key, double fallback) const;

 private:
  friend Value parse(std::string_view text);
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  /// An integer literal's exact value, where it fits each type.
  std::optional<std::int64_t> int_;
  std::optional<std::uint64_t> uint_;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// A syntax error: `offset` is the byte of the document at which parsing
/// stopped, `reason` what was wrong there.
class ParseError : public InvalidArgument {
 public:
  ParseError(std::size_t offset, const std::string& reason);
  std::size_t offset() const { return offset_; }
  const std::string& reason() const { return reason_; }

 private:
  std::size_t offset_;
  std::string reason_;
};

/// Parses one complete JSON document (throws ParseError on any syntax
/// error or trailing data).
Value parse(std::string_view text);

}  // namespace sscor::json
