#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace graphbench {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Int(int64_t i) { return Number(double(i)); }

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

void Json::Append(Json value) { array_.push_back(std::move(value)); }

void Json::Set(std::string key, Json value) {
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const Json& Json::Get(std::string_view key) const {
  static const Json kNull;
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  return kNull;
}

bool Json::Has(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

namespace {

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (uint8_t(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void SerializeTo(const Json& j, std::string* out);

}  // namespace

std::string Json::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

namespace {

void SerializeTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.as_bool() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      double d = j.as_number();
      if (d == std::floor(d) && std::abs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", (long long)d);
        *out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        *out += buf;
      }
      break;
    }
    case Json::Type::kString:
      EscapeTo(j.as_string(), out);
      break;
    case Json::Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < j.size(); ++i) {
        if (i) out->push_back(',');
        SerializeTo(j.at(i), out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : j.object_pairs()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeTo(key, out);
        out->push_back(':');
        SerializeTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    GB_ASSIGN_OR_RETURN(Json j, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing JSON content");
    }
    return j;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(uint8_t(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      GB_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::Str(std::move(s));
    }
    if (c == 't' || c == 'f') {
      if (text_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return Json::Bool(true);
      }
      if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return Json::Bool(false);
      }
      return Status::InvalidArgument("bad JSON literal");
    }
    if (c == 'n') {
      if (text_.substr(pos_, 4) == "null") {
        pos_ += 4;
        return Json::Null();
      }
      return Status::InvalidArgument("bad JSON literal");
    }
    return ParseNumber();
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? per RFC 8259, converted
  // with from_chars; anything else, or a value outside double's range, is
  // InvalidArgument.
  Result<Json> ParseNumber() {
    const size_t start = pos_;
    auto digits = [this] {
      size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ - from;
    };
    auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digits() == 0) {
      return Status::InvalidArgument("bad JSON number");
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return Status::InvalidArgument("bad JSON number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return Status::InvalidArgument("bad JSON number");
    }
    double value = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      return Status::InvalidArgument("JSON number out of range: " +
                                     std::string(first, last));
    }
    return Json::Number(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Status::InvalidArgument("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::InvalidArgument("bad unicode escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else return Status::InvalidArgument("bad unicode escape");
            }
            // Only BMP codepoints below 0x80 are emitted as-is; others
            // get UTF-8 encoded (payloads here are ASCII in practice).
            if (code < 0x80) {
              out.push_back(char(code));
            } else if (code < 0x800) {
              out.push_back(char(0xC0 | (code >> 6)));
              out.push_back(char(0x80 | (code & 0x3F)));
            } else {
              out.push_back(char(0xE0 | (code >> 12)));
              out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(char(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Status::InvalidArgument("bad escape");
        }
        continue;
      }
      out.push_back(c);
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<Json> ParseObject() {
    if (!Consume('{')) return Status::InvalidArgument("expected object");
    Json obj = Json::Object();
    SkipWs();
    if (Consume('}')) return obj;
    for (;;) {
      GB_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Consume(':')) return Status::InvalidArgument("expected ':'");
      GB_ASSIGN_OR_RETURN(Json value, ParseValue());
      obj.Set(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Status::InvalidArgument("expected ',' or '}'");
    }
  }

  Result<Json> ParseArray() {
    if (!Consume('[')) return Status::InvalidArgument("expected array");
    Json arr = Json::Array();
    SkipWs();
    if (Consume(']')) return arr;
    for (;;) {
      GB_ASSIGN_OR_RETURN(Json value, ParseValue());
      arr.Append(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Status::InvalidArgument("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<Json> Json::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.Parse();
}

}  // namespace graphbench
