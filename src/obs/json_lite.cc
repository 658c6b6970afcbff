#include "src/obs/json_lite.h"

#include <cctype>
#include <cstdlib>

namespace bsched {
namespace obs {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipSpace();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = error_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing content at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not combined;
          // our own writer only emits \u00XX control escapes).
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
          return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseKeyword(JsonValue* out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.rfind("true", 0) == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (rest.rfind("false", 0) == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (rest.rfind("null", 0) == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("unknown keyword");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("malformed number");
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) {
      found = &v;
    }
  }
  return found;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

}  // namespace obs
}  // namespace bsched
