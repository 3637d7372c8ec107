// trace_check — validates the files the tracing and telemetry layers
// emit, with no dependency on an external JSON tool or curl being present
// in the environment.
//
//   trace_check FILE            validate one JSON document (Chrome trace,
//                               /statusz, /healthz)
//   trace_check --jsonl FILE    validate one JSON object per line (decode
//                               introspection trace, event log)
//   trace_check --prom FILE     validate Prometheus text exposition format
//                               (/metrics): HELP/TYPE discipline, metric
//                               name and label syntax, histogram bucket
//                               monotonicity, +Inf/_sum/_count presence
//   trace_check --fetch URL ... fetch http://HOST:PORT/PATH first and
//                               validate the response body (any mode)
//
// Exit status 0 when the input validates, 1 with a line/column diagnostic
// on the first error.  JSON is read with the library's strict parser
// (util/json_parse.hpp), so the validator accepts exactly what the
// daemon and `top` read back.  Used by tools/run_checks.sh to smoke the
// --trace/--trace-spans outputs of sscor_tool and to scrape-validate the
// live ops endpoints of `sscor_tool watch --stats-addr`.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "sscor/net/http_client.hpp"
#include "sscor/util/json_parse.hpp"

namespace {

/// Validates `text` as one JSON document with the library's reader.  On
/// failure prints the first error as "line L, column C" (lines counted
/// from `first_line`) and returns false.
bool valid_json(const std::string& path, const std::string& text,
                std::size_t first_line) {
  try {
    sscor::json::parse(text);
    return true;
  } catch (const sscor::json::ParseError& e) {
    const std::string_view before(text.data(),
                                  std::min(e.offset(), text.size()));
    const std::size_t newline = before.rfind('\n');
    const std::size_t line =
        first_line + std::count(before.begin(), before.end(), '\n');
    const std::size_t column = newline == std::string_view::npos
                                   ? before.size() + 1
                                   : before.size() - newline;
    std::fprintf(stderr, "%s: line %zu, column %zu: %s\n", path.c_str(), line,
                 column, e.reason().c_str());
    return false;
  }
}

int check_json(const std::string& path, const std::string& text) {
  if (!valid_json(path, text, 1)) return 1;
  std::printf("%s: valid JSON (%zu bytes)\n", path.c_str(), text.size());
  return 0;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    const bool digit = std::isdigit(static_cast<unsigned char>(c));
    if (i == 0 ? !alpha : !(alpha || digit)) return false;
  }
  return true;
}

/// Strict validation of the Prometheus text exposition format (0.0.4):
/// every line must be a HELP/TYPE comment or a well-formed sample, every
/// sample's family must have been TYPEd first, and histogram families must
/// have monotonic cumulative buckets ending in a "+Inf" bucket that agrees
/// with _count, plus a _sum.
int check_prom(const std::string& path, const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t samples = 0;
  std::map<std::string, std::string> types;  // family -> declared type
  struct HistState {
    double last_bucket = -1.0;
    double inf = -1.0;
    double count = -1.0;
    bool has_sum = false;
  };
  std::map<std::string, HistState> histograms;

  const auto err = [&](const std::string& message) {
    std::fprintf(stderr, "%s: line %zu: %s\n", path.c_str(), line_no,
                 message.c_str());
    return 1;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, family;
      comment >> hash >> keyword >> family;
      if (keyword != "HELP" && keyword != "TYPE") {
        return err("comment must be '# HELP' or '# TYPE'");
      }
      if (!valid_metric_name(family)) {
        return err("invalid metric name in " + keyword + ": '" + family +
                   "'");
      }
      if (keyword == "TYPE") {
        std::string type;
        comment >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return err("unknown metric type '" + type + "'");
        }
        if (types.count(family) != 0) {
          return err("duplicate TYPE for family '" + family + "'");
        }
        types[family] = type;
        if (type == "histogram") histograms[family];
      }
      continue;
    }

    // Sample line: name[{label="value",...}] value [timestamp]
    std::size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == ':')) {
      ++pos;
    }
    const std::string name = line.substr(0, pos);
    if (!valid_metric_name(name)) return err("invalid sample metric name");

    std::map<std::string, std::string> labels;
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        std::size_t key_end = pos;
        while (key_end < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[key_end])) ||
                line[key_end] == '_')) {
          ++key_end;
        }
        const std::string key = line.substr(pos, key_end - pos);
        if (key.empty() || key_end >= line.size() || line[key_end] != '=' ||
            key_end + 1 >= line.size() || line[key_end + 1] != '"') {
          return err("malformed label (expected name=\"value\")");
        }
        pos = key_end + 2;
        std::string value;
        while (pos < line.size() && line[pos] != '"') {
          if (line[pos] == '\\') {
            if (pos + 1 >= line.size() ||
                std::strchr("\\\"n", line[pos + 1]) == nullptr) {
              return err("bad escape in label value");
            }
            ++pos;
          }
          value += line[pos++];
        }
        if (pos >= line.size()) return err("unterminated label value");
        ++pos;  // closing quote
        labels[key] = value;
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size() || line[pos] != '}') {
        return err("unterminated label set");
      }
      ++pos;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return err("expected ' ' before sample value");
    }
    ++pos;
    const std::string value_text = line.substr(pos);
    double value = 0.0;
    if (value_text == "+Inf") {
      value = HUGE_VAL;
    } else if (value_text == "-Inf") {
      value = -HUGE_VAL;
    } else if (value_text == "NaN") {
      value = NAN;
    } else {
      char* end = nullptr;
      value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || *end != '\0') {
        return err("sample value is not a number: '" + value_text + "'");
      }
    }
    ++samples;

    // Resolve the family: exact for counters/gauges, the base name for
    // histogram _bucket/_sum/_count series.
    std::string family = name;
    std::string suffix;
    for (const char* candidate : {"_bucket", "_sum", "_count"}) {
      const std::size_t len = std::strlen(candidate);
      if (name.size() > len &&
          name.compare(name.size() - len, len, candidate) == 0 &&
          types.count(name.substr(0, name.size() - len)) != 0 &&
          types[name.substr(0, name.size() - len)] == "histogram") {
        family = name.substr(0, name.size() - len);
        suffix = candidate;
        break;
      }
    }
    const auto type_it = types.find(family);
    if (type_it == types.end()) {
      return err("sample '" + name + "' has no preceding TYPE");
    }
    if (type_it->second == "histogram") {
      if (suffix.empty()) {
        return err("histogram family '" + family +
                   "' sample must be _bucket/_sum/_count");
      }
      HistState& hist = histograms[family];
      if (suffix == "_bucket") {
        const auto le = labels.find("le");
        if (le == labels.end()) {
          return err("_bucket sample is missing its le label");
        }
        if (value < hist.last_bucket) {
          return err("histogram '" + family +
                     "' buckets are not monotonically non-decreasing");
        }
        hist.last_bucket = value;
        if (le->second == "+Inf") hist.inf = value;
      } else if (suffix == "_sum") {
        hist.has_sum = true;
      } else {
        hist.count = value;
      }
    } else if (type_it->second == "counter" && value < 0.0) {
      return err("counter '" + name + "' has a negative value");
    }
  }

  for (const auto& [family, hist] : histograms) {
    if (hist.inf < 0.0) {
      std::fprintf(stderr, "%s: histogram '%s' has no +Inf bucket\n",
                   path.c_str(), family.c_str());
      return 1;
    }
    if (!hist.has_sum || hist.count < 0.0) {
      std::fprintf(stderr, "%s: histogram '%s' is missing _sum or _count\n",
                   path.c_str(), family.c_str());
      return 1;
    }
    if (hist.inf != hist.count) {
      std::fprintf(stderr,
                   "%s: histogram '%s' +Inf bucket (%g) != _count (%g)\n",
                   path.c_str(), family.c_str(), hist.inf, hist.count);
      return 1;
    }
  }

  std::printf("%s: valid Prometheus exposition (%zu samples, %zu families)\n",
              path.c_str(), samples, types.size());
  return 0;
}

int check_jsonl(const std::string& path, const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.front() != '{') {
      std::fprintf(stderr, "%s: line %zu: JSONL record must be an object\n",
                   path.c_str(), line_no);
      return 1;
    }
    if (!valid_json(path, line, line_no)) return 1;
    ++records;
  }
  std::printf("%s: valid JSONL (%zu records)\n", path.c_str(), records);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false;
  bool prom = false;
  bool fetch = false;
  const char* target = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--fetch") == 0) {
      fetch = true;
    } else if (target == nullptr) {
      target = argv[i];
    } else {
      target = nullptr;
      break;
    }
  }
  if (target == nullptr || (jsonl && prom)) {
    std::fprintf(stderr, "usage: %s [--jsonl|--prom] [--fetch] FILE|URL\n",
                 argv[0]);
    return 2;
  }

  std::string text;
  if (fetch) {
    try {
      const sscor::net::HttpResult result =
          sscor::net::http_get_url(target);
      if (result.status != 200) {
        std::fprintf(stderr, "%s: HTTP %d\n", target, result.status);
        return 1;
      }
      text = result.body;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", target, e.what());
      return 1;
    }
  } else {
    std::ifstream in(target, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", target);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  if (prom) return check_prom(target, text);
  return jsonl ? check_jsonl(target, text) : check_json(target, text);
}
