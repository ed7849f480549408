#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dagpm::support {

JsonValue::JsonValue(JsonArray a)
    : kind_(Kind::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : kind_(Kind::kObject),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

const JsonArray& JsonValue::asArray() const {
  static const JsonArray kEmpty;
  return array_ ? *array_ : kEmpty;
}

const JsonObject& JsonValue::asObject() const {
  static const JsonObject kEmpty;
  return object_ ? *object_ : kEmpty;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!isObject()) return nullptr;
  const auto it = asObject().find(key);
  return it == asObject().end() ? nullptr : &it->second;
}

double JsonValue::numberOr(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->isNumber()) ? v->asNumber() : fallback;
}

std::string JsonValue::stringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->isString()) ? v->asString() : fallback;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void dumpValue(const JsonValue& value, std::ostringstream& os, int indent,
               int depth) {
  const std::string pad(static_cast<std::size_t>(indent) * depth, ' ');
  const std::string childPad(static_cast<std::size_t>(indent) * (depth + 1),
                             ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (value.kind()) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool:
      os << (value.asBool() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber: {
      const double n = value.asNumber();
      if (n == std::floor(n) && std::abs(n) < 1e15) {
        os << static_cast<long long>(n);
      } else {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", n);
        os << buf;
      }
      break;
    }
    case JsonValue::Kind::kString:
      os << '"' << jsonEscape(value.asString()) << '"';
      break;
    case JsonValue::Kind::kArray: {
      const JsonArray& arr = value.asArray();
      if (arr.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        os << childPad;
        dumpValue(arr[i], os, indent, depth + 1);
        if (i + 1 < arr.size()) os << ',';
        os << nl;
      }
      os << pad << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      const JsonObject& obj = value.asObject();
      if (obj.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      std::size_t i = 0;
      for (const auto& [key, member] : obj) {
        os << childPad << '"' << jsonEscape(key) << "\":"
           << (indent > 0 ? " " : "");
        dumpValue(member, os, indent, depth + 1);
        if (++i < obj.size()) os << ',';
        os << nl;
      }
      os << pad << '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    skipWhitespace();
    auto value = parseValue();
    if (!value) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skipWhitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing characters at " +
                                     std::to_string(pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  void skipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(const std::string& message) {
    error_ = message + " at offset " + std::to_string(pos_);
    return std::nullopt;
  }

  std::optional<JsonValue> parseValue() {
    skipWhitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') return parseString();
    if (c == 't' || c == 'f') return parseBool();
    if (c == 'n') return parseNull();
    return parseNumber();
  }

  std::optional<JsonValue> parseObject() {
    consume('{');
    JsonObject obj;
    skipWhitespace();
    if (consume('}')) return JsonValue(std::move(obj));
    while (true) {
      skipWhitespace();
      const auto key = parseString();
      if (!key) return std::nullopt;
      skipWhitespace();
      if (!consume(':')) return fail("expected ':' in object");
      auto value = parseValue();
      if (!value) return std::nullopt;
      obj.emplace(key->asString(), std::move(*value));
      skipWhitespace();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue(std::move(obj));
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> parseArray() {
    consume('[');
    JsonArray arr;
    skipWhitespace();
    if (consume(']')) return JsonValue(std::move(arr));
    while (true) {
      auto value = parseValue();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skipWhitespace();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue(std::move(arr));
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> parseString() {
    if (!consume('"')) return fail("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return JsonValue(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
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
                return fail("bad \\u digit");
              }
            }
            // Basic-multilingual-plane only; encode as UTF-8.
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
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  std::optional<JsonValue> parseBool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue(false);
    }
    return fail("expected boolean");
  }

  std::optional<JsonValue> parseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue();
    }
    return fail("expected null");
  }

  std::optional<JsonValue> parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    try {
      return JsonValue(std::stod(text_.substr(start, pos_ - start)));
    } catch (...) {
      return fail("malformed number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::ostringstream oss;
  dumpValue(*this, oss, indent, 0);
  return oss.str();
}

std::optional<JsonValue> parseJson(const std::string& text) {
  return parseJsonWithError(text, nullptr);
}

std::optional<JsonValue> parseJsonWithError(const std::string& text,
                                            std::string* error) {
  Parser parser(text);
  return parser.parse(error);
}

}  // namespace dagpm::support
