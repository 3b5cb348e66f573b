#include "kv/key_codec.h"

namespace graphbench {
namespace keycodec {

void AppendU64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(char(uint8_t(v >> shift)));
  }
}

void AppendByte(std::string* dst, uint8_t v) { dst->push_back(char(v)); }

void AppendRowKey(std::string* dst, uint8_t tag, uint64_t row) {
  AppendByte(dst, tag);
  AppendU64(dst, row);
}

void AppendString(std::string* dst, std::string_view s) {
  for (char c : s) {
    dst->push_back(c);
    if (c == '\0') dst->push_back('\xff');
  }
  dst->push_back('\0');
  dst->push_back('\0');
}

bool DecodeU64(std::string_view* src, uint64_t* v) {
  if (src->size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | uint8_t((*src)[size_t(i)]);
  }
  src->remove_prefix(8);
  *v = out;
  return true;
}

bool DecodeByte(std::string_view* src, uint8_t* v) {
  if (src->empty()) return false;
  *v = uint8_t((*src)[0]);
  src->remove_prefix(1);
  return true;
}

bool DecodeString(std::string_view* src, std::string* s) {
  s->clear();
  size_t i = 0;
  while (i < src->size()) {
    char c = (*src)[i];
    if (c == '\0') {
      if (i + 1 >= src->size()) return false;
      char next = (*src)[i + 1];
      if (next == '\0') {
        src->remove_prefix(i + 2);
        return true;
      }
      if (next == '\xff') {
        s->push_back('\0');
        i += 2;
        continue;
      }
      return false;
    }
    s->push_back(c);
    ++i;
  }
  return false;
}

}  // namespace keycodec
}  // namespace graphbench
