#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstring>

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

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  // Runs that need no escape are appended whole.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && uint8_t(c) >= 0x20) continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[uint8_t(c) >> 4],
                            kHex[uint8_t(c) & 0xF]};
        out->append(esc, sizeof(esc));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void AppendJsonInt(int64_t i, std::string* out) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), i);
  out->append(buf, end);
}

void AppendJsonNumber(double d, std::string* out) {
  if (d == std::floor(d) && std::abs(d) < 9.0e15) {
    AppendJsonInt(int64_t(d), out);
    return;
  }
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, 17);
  out->append(buf, end);
}

char JsonReader::Peek() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c != ' ' && c != '\n' && c != '\r' && c != '\t') return c;
    ++pos_;
  }
  return '\0';
}

bool JsonReader::Consume(char c) {
  if (Peek() != c || pos_ == text_.size()) return false;
  ++pos_;
  return true;
}

Status JsonReader::Literal(std::string_view word) {
  Peek();
  if (text_.substr(pos_, word.size()) != word) {
    return Status::InvalidArgument("bad JSON literal");
  }
  pos_ += word.size();
  return Status::OK();
}

Result<std::string_view> JsonReader::String(std::string* scratch) {
  if (!Consume('"')) return Status::InvalidArgument("expected JSON string");
  const size_t start = pos_;
  const char* quote = static_cast<const char*>(
      std::memchr(text_.data() + pos_, '"', text_.size() - pos_));
  if (quote == nullptr) return Status::InvalidArgument("unterminated string");
  const size_t end = size_t(quote - text_.data());
  const void* escape = std::memchr(text_.data() + pos_, '\\', end - pos_);
  if (escape == nullptr) {
    pos_ = end + 1;
    return text_.substr(start, end - start);
  }
  // Escapes: unescape into scratch from the first one on.
  pos_ = size_t(static_cast<const char*>(escape) - text_.data());
  scratch->assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') return std::string_view(*scratch);
    if (c != '\\') {
      scratch->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    char esc = text_[pos_++];
    switch (esc) {
      case '"': scratch->push_back('"'); break;
      case '\\': scratch->push_back('\\'); break;
      case '/': scratch->push_back('/'); break;
      case 'n': scratch->push_back('\n'); break;
      case 'r': scratch->push_back('\r'); break;
      case 't': scratch->push_back('\t'); break;
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
        // A BMP codepoint, UTF-8 encoded (payloads here are ASCII in
        // practice; surrogate pairs are not combined).
        if (code < 0x80) {
          scratch->push_back(char(code));
        } else if (code < 0x800) {
          scratch->push_back(char(0xC0 | (code >> 6)));
          scratch->push_back(char(0x80 | (code & 0x3F)));
        } else {
          scratch->push_back(char(0xE0 | (code >> 12)));
          scratch->push_back(char(0x80 | ((code >> 6) & 0x3F)));
          scratch->push_back(char(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Status::InvalidArgument("bad escape");
    }
  }
  return Status::InvalidArgument("unterminated string");
}

// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? per RFC 8259; anything
// else is InvalidArgument.
Result<std::string_view> JsonReader::NumberText() {
  Peek();
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
  return text_.substr(start, pos_ - start);
}

Result<double> JsonReader::ToDouble(std::string_view number) {
  double value = 0;
  const char* last = number.data() + number.size();
  auto [ptr, ec] = std::from_chars(number.data(), last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::InvalidArgument("JSON number out of range: " +
                                   std::string(number));
  }
  return value;
}

Result<int64_t> JsonReader::ToInt64(std::string_view number) {
  int64_t value = 0;
  const char* last = number.data() + number.size();
  auto [ptr, ec] = std::from_chars(number.data(), last, value);
  if (ec != std::errc() || ptr != last) {
    return Status::InvalidArgument("not an int64: " + std::string(number));
  }
  return value;
}

Result<double> JsonReader::Number() {
  GB_ASSIGN_OR_RETURN(std::string_view number, NumberText());
  return ToDouble(number);
}

Result<int64_t> JsonReader::Int64() {
  GB_ASSIGN_OR_RETURN(std::string_view number, NumberText());
  return ToInt64(number);
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
    case Json::Type::kNumber:
      AppendJsonNumber(j.as_number(), out);
      break;
    case Json::Type::kString:
      AppendJsonString(j.as_string(), out);
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
        AppendJsonString(key, out);
        out->push_back(':');
        SerializeTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

Result<Json> ParseValue(JsonReader& in) {
  switch (in.Peek()) {
    case '{': {
      Json obj = Json::Object();
      GB_RETURN_IF_ERROR(in.Object([&](std::string_view key) -> Status {
        GB_ASSIGN_OR_RETURN(Json value, ParseValue(in));
        obj.Set(std::string(key), std::move(value));
        return Status::OK();
      }));
      return obj;
    }
    case '[': {
      Json arr = Json::Array();
      GB_RETURN_IF_ERROR(in.Array([&]() -> Status {
        GB_ASSIGN_OR_RETURN(Json value, ParseValue(in));
        arr.Append(std::move(value));
        return Status::OK();
      }));
      return arr;
    }
    case '"': {
      std::string scratch;
      GB_ASSIGN_OR_RETURN(std::string_view s, in.String(&scratch));
      return Json::Str(std::string(s));
    }
    case 't':
      GB_RETURN_IF_ERROR(in.Literal("true"));
      return Json::Bool(true);
    case 'f':
      GB_RETURN_IF_ERROR(in.Literal("false"));
      return Json::Bool(false);
    case 'n':
      GB_RETURN_IF_ERROR(in.Literal("null"));
      return Json::Null();
    default: {
      if (in.AtEnd()) return Status::InvalidArgument("unexpected end of JSON");
      GB_ASSIGN_OR_RETURN(double d, in.Number());
      return Json::Number(d);
    }
  }
}

}  // namespace

std::string Json::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  JsonReader in(text);
  GB_ASSIGN_OR_RETURN(Json j, ParseValue(in));
  if (!in.AtEnd()) return Status::InvalidArgument("trailing JSON content");
  return j;
}

}  // namespace graphbench
