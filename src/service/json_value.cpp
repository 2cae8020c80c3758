#include "service/json_value.hpp"

#include <cctype>
#include <charconv>
#include <set>
#include <stdexcept>

namespace rpcg::service {

namespace {

// Arrays and objects nest at most this deep. The job format nests four
// levels (job object, failures array, event object, nodes array); the limit
// keeps the recursive descent off the end of the stack on hostile lines.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() {
    if (done()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!done() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                       peek() == '\r'))
      ++pos_;
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  JsonValue value() {
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue::make(string_token());
      case 't':
        expect_word("true");
        return JsonValue::make(true);
      case 'f':
        expect_word("false");
        return JsonValue::make(false);
      case 'n':
        expect_word("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  std::string string_token() {
    if (take() != '"') fail("expected string");
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string unicode_escape() {
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A') + 10;
      } else {
        fail("invalid \\u escape");
      }
    }
    // BMP only (no surrogate pairs) — ample for job names and paths.
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
    std::string out;
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
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    while (!done() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                       peek() == '.' || peek() == 'e' || peek() == 'E' ||
                       peek() == '+' || peek() == '-'))
      ++pos_;
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, parsed);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return JsonValue::make(parsed);
  }

  JsonValue array() {
    take();  // '['
    JsonValue::Array items;
    skip_ws();
    if (!done() && peek() == ']') {
      ++pos_;
      return JsonValue::make(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(value());
      skip_ws();
      const char c = take();
      if (c == ']') return JsonValue::make(std::move(items));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue object() {
    take();  // '{'
    JsonValue::Object members;
    std::set<std::string> keys;
    skip_ws();
    if (!done() && peek() == '}') {
      ++pos_;
      return JsonValue::make(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = string_token();
      if (!keys.insert(key).second)
        fail("duplicate object key \"" + key + "\"");
      skip_ws();
      if (take() != ':') fail("expected ':' after object key");
      skip_ws();
      members.emplace_back(std::move(key), value());
      skip_ws();
      const char c = take();
      if (c == '}') return JsonValue::make(std::move(members));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

JsonValue JsonValue::make(bool v) {
  JsonValue out;
  out.value_ = v;
  return out;
}

JsonValue JsonValue::make(double v) {
  JsonValue out;
  out.value_ = v;
  return out;
}

JsonValue JsonValue::make(std::string v) {
  JsonValue out;
  out.value_ = std::move(v);
  return out;
}

JsonValue JsonValue::make(Array v) {
  JsonValue out;
  out.value_ = std::move(v);
  return out;
}

JsonValue JsonValue::make(Object v) {
  JsonValue out;
  out.value_ = std::move(v);
  return out;
}

const char* JsonValue::kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  throw std::invalid_argument(std::string("json: expected ") + wanted +
                              ", got " + JsonValue::kind_name(got));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind());
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number", kind());
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string", kind());
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array", kind());
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object", kind());
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, member] : std::get<Object>(value_)) {
    if (name == key) return &member;
  }
  return nullptr;
}

}  // namespace rpcg::service
