#ifndef GRAPHBENCH_UTIL_JSON_H_
#define GRAPHBENCH_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace graphbench {

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, as are
/// control characters (`\n`, `\r`, `\t`, else `\u00xx`); other bytes,
/// UTF-8 included, are copied as they are.
void AppendJsonString(std::string_view s, std::string* out);
/// Appends `i` exactly, in decimal.
void AppendJsonInt(int64_t i, std::string* out);
/// Appends `d`: an integral value below 9e15 in magnitude as an integer,
/// anything else as printf's `%.17g`, which reads back to the same double.
/// Non-finite values have no JSON spelling; callers handle them.
void AppendJsonNumber(double d, std::string* out);

/// Cursor over JSON text: the repo's one JSON grammar (RFC 8259). Json::Parse
/// builds a document with it, and streaming readers such as the GraphSON
/// codec build their own values in place with it. The cursor methods skip
/// whitespace first; every error is InvalidArgument.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The next byte, or '\0' at the end of the text.
  char Peek();
  /// Consumes `c` if it is next.
  bool Consume(char c);
  /// True when only whitespace remains.
  bool AtEnd() { return Peek() == '\0' && pos_ == text_.size(); }

  /// Consumes the literal `word` (true, false or null).
  Status Literal(std::string_view word);
  /// Reads a string literal. The view points into the text when the string
  /// has no escapes, else into `*scratch`, which then holds the unescaped
  /// bytes.
  Result<std::string_view> String(std::string* scratch);
  /// Scans a number and returns its text, for ToDouble or ToInt64.
  Result<std::string_view> NumberText();
  Result<double> Number();
  Result<int64_t> Int64();

  /// Converts number text: out of double's range is an error.
  static Result<double> ToDouble(std::string_view number);
  /// Converts number text written as an integer (no fraction or exponent)
  /// that fits int64, exactly; anything else is an error.
  static Result<int64_t> ToInt64(std::string_view number);

  /// Reads an object: `member(key)` runs once per member with the cursor
  /// on its value, and must read that value. `key` stays valid until
  /// `member` returns.
  template <typename Member>
  Status Object(Member&& member) {
    if (!Consume('{')) return Status::InvalidArgument("expected JSON object");
    if (Consume('}')) return Status::OK();
    std::string scratch;
    for (;;) {
      GB_ASSIGN_OR_RETURN(std::string_view key, String(&scratch));
      if (!Consume(':')) return Status::InvalidArgument("expected ':'");
      GB_RETURN_IF_ERROR(member(key));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Status::InvalidArgument("expected ',' or '}'");
    }
  }

  /// Reads an array: `element()` runs once per element and must read it.
  template <typename Element>
  Status Array(Element&& element) {
    if (!Consume('[')) return Status::InvalidArgument("expected JSON array");
    if (Consume(']')) return Status::OK();
    for (;;) {
      GB_RETURN_IF_ERROR(element());
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Status::InvalidArgument("expected ',' or ']'");
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// Minimal JSON document model: the bench reports, and the tools that
/// read them back.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Int(int64_t i);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  int64_t as_int() const { return int64_t(number_); }
  const std::string& as_string() const { return string_; }

  /// Array access.
  void Append(Json value);
  size_t size() const { return array_.size(); }
  const Json& at(size_t i) const { return array_[i]; }
  Json& at(size_t i) { return array_[i]; }

  /// Object access. Get returns null Json when absent.
  void Set(std::string key, Json value);
  const Json& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  /// Object entries in insertion order.
  const std::vector<std::pair<std::string, Json>>& object_pairs() const {
    return object_;
  }

  /// Compact serialization (no whitespace).
  std::string Serialize() const;

  /// Parses a complete JSON document.
  static Result<Json> Parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace graphbench

#endif  // GRAPHBENCH_UTIL_JSON_H_
