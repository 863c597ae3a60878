#include "tests/obs/json_parse.h"

#include <cstdlib>
#include <cstring>

namespace grapple {
namespace obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double default_value) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsNumber()) ? v->number_value : default_value;
}

std::string JsonValue::StringOr(const std::string& key, const std::string& default_value) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->IsString()) ? v->string_value : default_value;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  std::optional<JsonValue> Parse() {
    SkipWs();
    JsonValue value;
    if (!ParseValue(&value)) {
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return value;
  }

 private:
  std::optional<JsonValue> Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  bool Error(const std::string& message) {
    Fail(message);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
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
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseKeyword(JsonValue* out) {
    auto match = [&](const char* word) {
      size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return true;
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return true;
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return Error("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        digits = digits || (c >= '0' && c <= '9');
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) {
      return Error("invalid number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return Error("expected string");
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; decode them as-is if seen).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  bool ParseObject(JsonValue* out) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->members.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(const std::string& text, std::string* error) {
  Parser parser(text, error);
  return parser.Parse();
}

}  // namespace obs
}  // namespace grapple
