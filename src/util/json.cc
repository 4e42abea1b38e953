#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pfutil {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string JsonValue::GetString(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(const char* word, JsonValue value, JsonValue* out) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return Fail(std::string("invalid literal (expected ") + word + ")");
    }
    pos_ += n;
    *out = std::move(value);
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case 'n':
        return Literal("null", JsonValue::MakeNull(), out);
      case 't':
        return Literal("true", JsonValue::MakeBool(true), out);
      case 'f':
        return Literal("false", JsonValue::MakeBool(false), out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case '[':
      case '{': {
        if (depth_ == kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        ++depth_;
        const bool ok = text_[pos_] == '[' ? ParseArray(out) : ParseObject(out);
        --depth_;
        return ok;
      }
      default:
        return ParseNumber(out);
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Fail("truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* s) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xC0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xE0 | (cp >> 12));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *s += static_cast<char>(0xF0 | (cp >> 18));
      *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        return Fail("truncated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) {
            return false;
          }
          // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) {
              return false;
            }
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              AppendUtf8(cp, out);  // a lone high surrogate, kept as is
              cp = low;
            }
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("unknown escape character");
      }
    }
  }

  // RFC 8259 §6: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — strtod
  // alone would also take "+1", "01", ".5" and "1.".
  static bool IsJsonNumber(const std::string& s) {
    size_t i = 0;
    const auto digits = [&] {
      const size_t from = i;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      return i - from;
    };
    if (i < s.size() && s[i] == '-') {
      ++i;
    }
    const size_t int_start = i;
    const size_t int_digits = digits();
    if (int_digits == 0 || (int_digits > 1 && s[int_start] == '0')) {
      return false;
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (digits() == 0) {
        return false;
      }
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
        ++i;
      }
      if (digits() == 0) {
        return false;
      }
    }
    return i == s.size();
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("invalid value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = IsJsonNumber(token) ? std::strtod(token.c_str(), &end) : 0.0;
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      return Fail("malformed number");
    }
    *out = JsonValue::MakeNumber(value);
    return true;
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      SkipWs();
      if (!ParseValue(&item)) {
        return false;
      }
      items.push_back(std::move(item));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(items));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in object");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      members[std::move(key)] = std::move(value);
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    return "null";
  }
  // Shortest precision that round-trips: counters need every digit, but a
  // fixed %.17g makes 0.1 print as 0.10000000000000001.
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

}  // namespace pfutil
