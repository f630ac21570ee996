#include "minijson.h"

#include <charconv>
#include <cstdio>

namespace perfbench {

namespace {

const JValue& NullValue() {
  static const JValue kNull;
  return kNull;
}

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool Document(JValue* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    Skip();
    if (pos_ != s_.size()) {
      *error = "trailing bytes after JSON value";
      return false;
    }
    return true;
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          auto r = std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4,
                                   code, 16);
          if (r.ec != std::errc() || r.ptr != s_.data() + pos_ + 4) {
            return Fail("bad \\u escape");
          }
          pos_ += 4;
          // The program escapes only control characters; keep BMP code
          // points as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Value(JValue* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    Skip();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    char c = s_[pos_];
    if (c == '{') {
      out->type = JValue::Type::kObject;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        out->fields.emplace_back(std::move(key), JValue());
        if (!Value(&out->fields.back().second, depth + 1)) return false;
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = JValue::Type::kArray;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->items.emplace_back();
        if (!Value(&out->items.back(), depth + 1)) return false;
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JValue::Type::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->type = JValue::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = JValue::Type::kBool;
      return Literal("false");
    }
    if (c == 'n') return Literal("null");
    out->type = JValue::Type::kNumber;
    const char* begin = s_.data() + pos_;
    auto r = std::from_chars(begin, s_.data() + s_.size(), out->number);
    if (r.ec != std::errc()) return Fail("bad number");
    pos_ += static_cast<size_t>(r.ptr - begin);
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JValue& JValue::operator[](std::string_view key) const {
  if (type == Type::kObject) {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
  }
  return NullValue();
}

bool JValue::Has(std::string_view key) const {
  if (type != Type::kObject) return false;
  for (const auto& f : fields) {
    if (f.first == key) return true;
  }
  return false;
}

double JValue::Num(std::string_view key, double fallback) const {
  const JValue& v = (*this)[key];
  return v.is_number() ? v.number : fallback;
}

std::string JValue::Str(std::string_view key) const {
  const JValue& v = (*this)[key];
  return v.is_string() ? v.str : std::string();
}

bool JValue::Bool(std::string_view key) const {
  const JValue& v = (*this)[key];
  return v.type == Type::kBool && v.boolean;
}

bool ParseJson(std::string_view text, JValue* out, std::string* error) {
  *out = JValue();
  return Reader(text).Document(out, error);
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace perfbench
