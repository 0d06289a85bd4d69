#include "isex/serve/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "isex/obs/metrics.hpp"

namespace isex::serve {

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const Json* found = nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) found = &v;
  return found;
}

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array(std::vector<Json> items) {
  Json j;
  j.type_ = Type::kArray;
  j.arr_ = std::move(items);
  return j;
}

Json Json::make_object(std::vector<std::pair<std::string, Json>> members) {
  Json j;
  j.type_ = Type::kObject;
  j.obj_ = std::move(members);
  return j;
}

namespace {

/// Returns the byte length of the valid UTF-8 sequence starting at s[pos]
/// (lead byte >= 0x80), or 0 if the bytes there are not well-formed UTF-8
/// (truncated, stray continuation, overlong, surrogate, or beyond U+10FFFF).
std::size_t valid_utf8_len(std::string_view s, std::size_t pos) {
  const unsigned char lead = static_cast<unsigned char>(s[pos]);
  std::size_t extra;
  unsigned cp;
  if (lead >= 0xC2 && lead <= 0xDF) {
    extra = 1;
    cp = lead & 0x1Fu;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    extra = 2;
    cp = lead & 0x0Fu;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    extra = 3;
    cp = lead & 0x07u;
  } else {
    return 0;  // 0x80..0xBF stray continuation, 0xC0/0xC1 overlong, 0xF5+.
  }
  if (pos + 1 + extra > s.size()) return 0;
  for (std::size_t i = 1; i <= extra; ++i) {
    const unsigned char cont = static_cast<unsigned char>(s[pos + i]);
    if ((cont & 0xC0u) != 0x80u) return 0;
    cp = (cp << 6) | (cont & 0x3Fu);
  }
  if ((extra == 2 && cp < 0x800) || (extra == 3 && cp < 0x10000)) return 0;
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;
  if (cp > 0x10FFFF) return 0;
  return 1 + extra;
}

/// Recursive-descent parser over a bounded input. Depth is bounded by
/// limits.max_depth, so the recursion can never exhaust the stack; the value
/// and string budgets bound heap growth. All errors carry the byte offset.
class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  JsonParseResult run() {
    JsonParseResult r;
    skip_ws();
    // Depth is 1-based: the top-level value sits at depth 1, so a document
    // nested max_depth levels deep parses and max_depth + 1 is rejected.
    if (!parse_value(r.value, 1)) {
      r.error = error_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      r.error = at("trailing garbage after JSON value");
      r.value = Json();
      return r;
    }
    return r;
  }

 private:
  std::string at(const std::string& what) {
    return what + " (byte " + std::to_string(pos_) + ")";
  }

  bool fail(const std::string& what) {
    if (error_.empty()) error_ = at(what);
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool charge_value() {
    if (++values_ > limits_.max_values)
      return fail("too many values (limit " +
                  std::to_string(limits_.max_values) + ")");
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > limits_.max_depth)
      return fail("nesting deeper than " + std::to_string(limits_.max_depth));
    if (eof()) return fail("unexpected end of input");
    if (!charge_value()) return false;
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json::make_string(std::move(s));
        return true;
      }
      case 't': return parse_literal("true", Json::make_bool(true), out);
      case 'f': return parse_literal("false", Json::make_bool(false), out);
      case 'n': return parse_literal("null", Json::make_null(), out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, Json value, Json& out) {
    if (text_.substr(pos_, lit.size()) != lit)
      return fail("invalid literal");
    pos_ += lit.size();
    out = std::move(value);
    return true;
  }

  bool parse_object(Json& out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, Json>> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      out = Json::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        out = Json::make_object(std::move(members));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Json& out, int depth) {
    ++pos_;  // '['
    std::vector<Json> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      out = Json::make_array(std::move(items));
      return true;
    }
    while (true) {
      skip_ws();
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        out = Json::make_array(std::move(items));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return true;
  }

  /// Validates and copies one raw multi-byte UTF-8 sequence starting at pos_.
  /// Rejects truncated sequences, stray continuation bytes, overlong
  /// encodings, surrogate code points, and anything above U+10FFFF, so every
  /// accepted string is well-formed UTF-8 end to end.
  bool copy_utf8_sequence(std::string& out) {
    const std::size_t len = valid_utf8_len(text_, pos_);
    if (len == 0) return fail("invalid UTF-8 sequence in string");
    out.append(text_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape digit");
    }
    pos_ += 4;
    out = v;
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      if (out.size() > limits_.max_string_bytes)
        return fail("string longer than " +
                    std::to_string(limits_.max_string_bytes) + " bytes");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        if (c < 0x80) {
          out += static_cast<char>(c);
          ++pos_;
        } else if (!copy_utf8_sequence(out)) {
          return false;
        }
        continue;
      }
      ++pos_;  // '\'
      if (eof()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("lone high surrogate");
            pos_ += 2;
            unsigned lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: 0, or [1-9][0-9]* (leading zeros rejected).
    if (eof() || peek() < '0' || peek() > '9')
      return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    // The token is already validated against the strict grammar; strtod on a
    // bounded copy only converts. A huge token (4k digits) is legal JSON but
    // pointless — bound the conversion buffer.
    const std::size_t len = pos_ - start;
    if (len > 512) return fail("number token longer than 512 bytes");
    const std::string tok(text_.substr(start, len));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return fail("invalid number");
    if (!std::isfinite(v)) return fail("number overflows double");
    out = Json::make_number(v);
    return true;
  }

  std::string_view text_;
  const JsonLimits& limits_;
  std::size_t pos_ = 0;
  long values_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text, const JsonLimits& limits) {
  JsonParseResult r = Parser(text, limits).run();
  if (!r.ok()) ISEX_COUNT("serve.json.parse_errors");
  return r;
}

std::string json_quote(std::string_view s) {
  // Escapes controls and quotes, and sanitizes the bytes: any sequence that
  // is not well-formed UTF-8 becomes U+FFFD. Renderings routinely echo
  // attacker-supplied request bytes (ids, messages); sanitizing here
  // guarantees the server's own output always re-parses under the same
  // strict parser clients use, no matter what arrived on the wire.
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  std::size_t i = 0;
  while (i < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '"') {
      out += "\\\"";
      ++i;
    } else if (c == '\\') {
      out += "\\\\";
      ++i;
    } else if (c < 0x20) {
      switch (c) {
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        }
      }
      ++i;
    } else if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
    } else if (const std::size_t len = valid_utf8_len(s, i); len > 0) {
      out.append(s.substr(i, len));
      i += len;
    } else {
      out += "\xEF\xBF\xBD";  // U+FFFD replacement character
      ++i;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Range check first: converting an out-of-range double is undefined.
  if (std::abs(v) < 9.007199254740992e15 &&
      v == static_cast<double>(static_cast<long long>(v)))
    return std::to_string(static_cast<long long>(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace isex::serve
