#include "sscor/util/json_parse.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "sscor/util/error.hpp"

namespace sscor::json {
namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw InvalidArgument(std::string("JSON value is not ") + wanted);
}

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON value");
    return v;
  }

 private:
  /// Arrays and objects nest at most this deep.  Parsing recurses once per
  /// level, so an unbounded "[[[[..." document would overflow the stack.
  static constexpr std::size_t kMaxDepth = 256;

  /// `depth`: the arrays and objects enclosing this value.
  Value parse_value(std::size_t depth) {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      fail("arrays and objects nested too deep");
    }
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"': {
        Value v;
        v.type_ = Value::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        expect_literal("true");
        return make_bool(true);
      case 'f':
        expect_literal("false");
        return make_bool(false);
      case 'n':
        expect_literal("null");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    Value v;
    v.type_ = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      v.object_[std::move(key)] = parse_value(depth);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(std::size_t depth) {
    Value v;
    v.type_ = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.array_.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size() ||
                  !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("bad \\u escape (need 4 hex digits)");
              }
              const char h = text_[pos_++];
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9'   ? h - '0'
                         : h <= 'F' ? h - 'A' + 10
                                    : h - 'a' + 10);
            }
            // util/json only emits \u00XX for control bytes; decode the
            // BMP in general as UTF-8 (no surrogate-pair handling).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape character");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("expected a JSON value");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::size_t integer_end = pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    Value v;
    v.type_ = Value::Type::kNumber;
    v.number_ = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                            nullptr);
    if (integer_end == pos_) {
      // A double holds integers exactly only up to 2^53: keep the literal.
      v.int_ = exact_integer<std::int64_t>(start);
      v.uint_ = exact_integer<std::uint64_t>(start);
    }
    return v;
  }

  /// The integer literal text_[start, pos_) as T, if it is in range.
  template <typename T>
  std::optional<T> exact_integer(std::size_t start) const {
    T value{};
    const char* const last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, last, value);
    if (ec != std::errc() || ptr != last) return std::nullopt;
    return value;
  }

  static Value make_bool(bool b) {
    Value v;
    v.type_ = Value::Type::kBool;
    v.bool_ = b;
    return v;
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("expected a JSON value");
    pos_ += word.size();
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const char* message) const {
    throw ParseError(pos_, message);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("a number");
  return number_;
}

std::int64_t Value::as_int() const {
  if (!int_) type_error("an int64");
  return *int_;
}

std::uint64_t Value::as_uint() const {
  if (!uint_) type_error("a uint64");
  return *uint_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) type_error("an array");
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (type_ != Type::kObject) type_error("an object");
  return object_;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw InvalidArgument("JSON object has no member \"" + key + "\"");
  }
  return *v;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("an object");
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::int64_t Value::int_or(const std::string& key,
                           std::int64_t fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_int();
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

ParseError::ParseError(std::size_t offset, const std::string& reason)
    : InvalidArgument("JSON parse error at offset " + std::to_string(offset) +
                      ": " + reason),
      offset_(offset),
      reason_(reason) {}

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace sscor::json
