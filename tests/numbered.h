// Test strings built from a prefix and a number ("k17").
//
// Written as `"k" + std::to_string(i)`, such a string makes GCC 12 report a
// false -Wrestrict in libstdc++'s char_traits::copy once the call is
// inlined; appending the number instead does not.

#ifndef GRAPHBENCH_TESTS_NUMBERED_H_
#define GRAPHBENCH_TESTS_NUMBERED_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace graphbench {

inline std::string Numbered(std::string_view prefix, int64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace graphbench

#endif  // GRAPHBENCH_TESTS_NUMBERED_H_
