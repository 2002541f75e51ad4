// Binary ADM: the compact, self-describing record encoding that the WAL,
// the LSM components and subscriber spill files store. A record is encoded
// once at the store and kept as bytes; `Value` trees are rebuilt only when
// a reader asks for one.
//
// Format (DESIGN.md §6.5.1): one tag byte per value (the TypeTag number),
// then its body:
//   null                   nothing
//   boolean                one byte, 0 or 1
//   int64, datetime        8 bytes, little-endian two's complement
//   double                 8 bytes, little-endian IEEE-754 bits (bit-exact:
//                          NaN payloads and -0.0 survive)
//   point                  two such doubles, x then y
//   string                 varint byte length, then the bytes
//   ordered list           varint item count, then each item
//   record                 varint field count, then per field a string body
//                          (the name) followed by the field's value
// Varints are unsigned LEB128 (7 bits per byte, low group first) of at
// most 10 bytes.
#pragma once

#include <string>
#include <string_view>

#include "adm/value.h"
#include "common/result.h"
#include "common/status.h"

namespace asterix {
namespace adm {

/// Appends `value`'s binary encoding to `out`. A value nested deeper than
/// kMaxNestingDepth (adm/value.h) is refused with InvalidArgument and
/// `out` is left as it was: the encoder accepts exactly what the decoder
/// does.
[[nodiscard]] common::Status AppendBinary(const Value& value,
                                          std::string* out);

/// Decodes exactly one value spanning all of `bytes`. Every read is bounds
/// checked; truncated input, an unknown tag, a non-canonical boolean, a
/// count larger than the remaining bytes could hold, nesting deeper than
/// kMaxNestingDepth and trailing bytes all yield Corruption.
[[nodiscard]] common::Result<Value> DecodeBinary(std::string_view bytes);

}  // namespace adm
}  // namespace asterix
