#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace xring::obs {

std::string json_num(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to a friendlier precision when it round-trips.
  char shorter[32];
  std::snprintf(shorter, sizeof(shorter), "%.12g", v);
  if (std::strtod(shorter, nullptr) == v) return shorter;
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << content;
  // Check the stream *after* writing and flushing: a full disk or a closed
  // pipe fails the write, not the open, and must not pass silently as a
  // truncated artifact.
  out.flush();
  if (!out) throw std::runtime_error("error writing " + path);
  out.close();
  if (out.fail()) throw std::runtime_error("error writing " + path);
}

std::string trace_json(const Registry& reg) {
  // Compact small-integer thread ids in order of first appearance.
  std::map<std::uint64_t, int> tids;
  auto tid_of = [&](std::uint64_t raw) {
    auto [it, inserted] = tids.emplace(raw, static_cast<int>(tids.size()) + 1);
    (void)inserted;
    return it->second;
  };

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : reg.spans()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"xring\""
        << ",\"ph\":\"X\",\"ts\":" << json_num(ev.start_us)
        << ",\"dur\":" << json_num(ev.dur_us) << ",\"pid\":1,\"tid\":"
        << tid_of(ev.thread_id) << ",\"args\":{\"depth\":" << ev.depth
        << "}}";
  }
  for (const auto& [name, points] : reg.series()) {
    for (const SeriesPoint& p : points) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\"xring\""
          << ",\"ph\":\"C\",\"ts\":" << json_num(p.t_us)
          << ",\"pid\":1,\"args\":{\"value\":" << json_num(p.value) << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

std::string metrics_json(const Registry& reg) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : reg.flatten()) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << json_escape(name) << "\": " << json_num(value);
  }
  out << "\n}\n";
  return out.str();
}

std::string metrics_csv(const Registry& reg) {
  std::ostringstream out;
  out << "name,value\n";
  for (const auto& [name, value] : reg.flatten()) {
    out << name << "," << json_num(value) << "\n";
  }
  return out.str();
}

namespace {

/// Cursor over a JSON text for the recursive-descent parser below.
struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON: " + what + " at offset " +
                                std::to_string(pos));
  }

  void expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      const char c = text[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      switch (text[pos++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default: fail("unsupported escape");
      }
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }

  /// The four hex digits after "\u".
  unsigned parse_hex4() {
    if (pos + 4 > text.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text[pos++];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("non-hex digit in \\u escape");
      }
    }
    return v;
  }

  /// The code point of a "\u" escape whose "\u" was consumed; a high
  /// surrogate must be followed by an escaped low one, and the pair
  /// combines into one code point.
  unsigned parse_code_point() {
    const unsigned hi = parse_hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) fail("lone low surrogate");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (text.compare(pos, 2, "\\u") != 0) fail("lone high surrogate");
    pos += 2;
    const unsigned lo = parse_hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  /// Appends code point `cp` as one to four UTF-8 bytes.
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  double parse_number() {
    const char* begin = text.c_str() + pos;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    pos += static_cast<std::size_t>(end - begin);
    return v;
  }
};

}  // namespace

namespace {

/// Recursive-descent value parser over JsonCursor; depth-capped so a
/// pathological document fails cleanly instead of overflowing the stack.
JsonValue parse_value(JsonCursor& cur, int depth) {
  if (depth > 64) cur.fail("nesting too deep");
  cur.skip_ws();
  if (cur.pos >= cur.text.size()) cur.fail("expected a value");
  const char c = cur.text[cur.pos];
  JsonValue v;
  if (c == '{') {
    ++cur.pos;
    v.kind = JsonValue::Kind::kObject;
    if (!cur.peek_is('}')) {
      while (true) {
        std::string key = cur.parse_string();
        cur.expect(':');
        v.object.emplace_back(std::move(key), parse_value(cur, depth + 1));
        if (cur.peek_is(',')) {
          ++cur.pos;
          continue;
        }
        break;
      }
    }
    cur.expect('}');
  } else if (c == '[') {
    ++cur.pos;
    v.kind = JsonValue::Kind::kArray;
    if (!cur.peek_is(']')) {
      while (true) {
        v.array.push_back(parse_value(cur, depth + 1));
        if (cur.peek_is(',')) {
          ++cur.pos;
          continue;
        }
        break;
      }
    }
    cur.expect(']');
  } else if (c == '"') {
    v.kind = JsonValue::Kind::kString;
    v.string = cur.parse_string();
  } else if (cur.text.compare(cur.pos, 4, "true") == 0) {
    cur.pos += 4;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = true;
  } else if (cur.text.compare(cur.pos, 5, "false") == 0) {
    cur.pos += 5;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = false;
  } else if (cur.text.compare(cur.pos, 4, "null") == 0) {
    cur.pos += 4;
    v.kind = JsonValue::Kind::kNull;
  } else {
    v.kind = JsonValue::Kind::kNumber;
    v.number = cur.parse_number();
  }
  return v;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(const std::string& text) {
  JsonCursor cur{text};
  JsonValue v = parse_value(cur, 0);
  cur.skip_ws();
  if (cur.pos != text.size()) cur.fail("trailing content");
  return v;
}

std::map<std::string, double> metrics_from_json(const JsonValue& doc) {
  if (doc.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("metrics JSON: root is not an object");
  }
  std::map<std::string, double> out;
  for (const auto& [name, value] : doc.object) {
    if (value.kind == JsonValue::Kind::kNumber) {
      out[name] = value.number;
    } else if (value.kind == JsonValue::Kind::kNull) {
      out[name] = std::nan("");
    } else {
      throw std::invalid_argument("metrics JSON: \"" + name +
                                  "\" is not a number or null");
    }
  }
  return out;
}

std::map<std::string, double> metrics_from_json(const std::string& json) {
  return metrics_from_json(parse_json(json));
}

std::string diagnostics_json(const Registry& reg) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const Diagnostic& d : reg.diagnostics()) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"severity\":\"" << to_string(d.severity) << "\",\"code\":\""
        << json_escape(d.code) << "\",\"message\":\"" << json_escape(d.message)
        << "\",\"t_us\":" << json_num(d.t_us) << ",\"context\":{";
    bool first_ctx = true;
    for (const auto& [key, value] : d.context) {
      if (!first_ctx) out << ",";
      first_ctx = false;
      out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
    }
    out << "}}";
  }
  out << "\n]\n";
  return out.str();
}

void write_trace_json(const std::string& path, const Registry& reg) {
  write_text_file(path, trace_json(reg));
}

void write_metrics_json(const std::string& path, const Registry& reg) {
  write_text_file(path, metrics_json(reg));
}

void write_metrics_csv(const std::string& path, const Registry& reg) {
  write_text_file(path, metrics_csv(reg));
}

}  // namespace xring::obs
