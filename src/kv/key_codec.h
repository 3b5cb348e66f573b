#ifndef GRAPHBENCH_KV_KEY_CODEC_H_
#define GRAPHBENCH_KV_KEY_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace graphbench {

/// Order-preserving key encoding for composite KV keys. The encoded byte
/// order equals the logical order of the components, so range scans over a
/// (prefix, suffix) keyspace (e.g., all edge rows of a vertex) are prefix
/// scans on the KV store.
namespace keycodec {

/// Appends a big-endian uint64; preserves unsigned order.
void AppendU64(std::string* dst, uint64_t v);

/// Appends a byte; preserves order.
void AppendByte(std::string* dst, uint8_t v);

/// Appends a string with 0x00 -> 0x00 0xFF escaping and a 0x00 0x00
/// terminator, so "a" < "aa" < "b" holds in encoded form.
void AppendString(std::string* dst, std::string_view s);

/// A row key is a one-byte tag plus a big-endian uint64 row id: Titan's
/// vertex row ('V' vid) and adjacency row ('A' vid). Keys that share
/// their first kRowKeyBytes bytes belong to one row, the unit a
/// Cassandra-style store keeps together in one partition.
inline constexpr size_t kRowKeyBytes = 9;

/// Appends the row key `tag` + `row`.
void AppendRowKey(std::string* dst, uint8_t tag, uint64_t row);

/// The row `key` belongs to: its first kRowKeyBytes bytes, or the whole
/// key when it is shorter.
inline std::string_view RowKeyOf(std::string_view key) {
  return key.substr(0, kRowKeyBytes);
}

/// Decoders advance `*src` past the consumed component. They return false
/// on malformed input (truncation).
bool DecodeU64(std::string_view* src, uint64_t* v);
bool DecodeByte(std::string_view* src, uint8_t* v);
bool DecodeString(std::string_view* src, std::string* s);

}  // namespace keycodec

}  // namespace graphbench

#endif  // GRAPHBENCH_KV_KEY_CODEC_H_
