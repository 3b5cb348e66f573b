#ifndef GRAPHBENCH_UTIL_STRING_UTIL_H_
#define GRAPHBENCH_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace graphbench {

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII-only case fold: bytes outside A-Z are returned unchanged.
constexpr char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? char(c - 'A' + 'a') : c;
}

/// ASCII case-insensitive equality.
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace graphbench

#endif  // GRAPHBENCH_UTIL_STRING_UTIL_H_
