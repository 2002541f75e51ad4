#include "adm/binary.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace asterix {
namespace adm {

namespace {

// The encoder sizes the value exactly, grows the output once, and writes
// through a raw pointer: no capacity check per piece written. The sizing
// walk also enforces the nesting limit, so PutValue never sees a value
// the decoder would refuse.

// EncodedSize of a value nested deeper than kMaxNestingDepth.
constexpr size_t kTooDeep = SIZE_MAX;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

size_t BytesSize(const std::string& s) {
  return VarintSize(s.size()) + s.size();
}

size_t EncodedSize(const Value& v, int depth) {
  switch (v.tag()) {
    case TypeTag::kNull:
      return 1;
    case TypeTag::kBoolean:
      return 2;
    case TypeTag::kInt64:
    case TypeTag::kDouble:
    case TypeTag::kDatetime:
      return 9;
    case TypeTag::kPoint:
      return 17;
    case TypeTag::kString:
      return 1 + BytesSize(v.AsString());
    case TypeTag::kOrderedList: {
      if (depth >= kMaxNestingDepth) return kTooDeep;
      size_t total = 1 + VarintSize(v.AsList().size());
      for (const Value& item : v.AsList()) {
        const size_t size = EncodedSize(item, depth + 1);
        if (size == kTooDeep) return kTooDeep;
        total += size;
      }
      return total;
    }
    case TypeTag::kRecord: {
      if (depth >= kMaxNestingDepth) return kTooDeep;
      size_t total = 1 + VarintSize(v.AsRecord().size());
      for (const auto& [name, field] : v.AsRecord()) {
        const size_t size = EncodedSize(field, depth + 1);
        if (size == kTooDeep) return kTooDeep;
        total += BytesSize(name) + size;
      }
      return total;
    }
  }
  return 1;
}

char* PutFixed64(uint64_t v, char* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out + 8;
}

char* PutVarint(uint64_t v, char* out) {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

char* PutBytes(const std::string& s, char* out) {
  out = PutVarint(s.size(), out);
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

char* PutValue(const Value& v, char* out) {
  *out++ = static_cast<char>(v.tag());
  switch (v.tag()) {
    case TypeTag::kNull:
      return out;
    case TypeTag::kBoolean:
      *out++ = v.AsBoolean() ? 1 : 0;
      return out;
    case TypeTag::kInt64:
      return PutFixed64(static_cast<uint64_t>(v.AsInt64()), out);
    case TypeTag::kDatetime:
      return PutFixed64(static_cast<uint64_t>(v.AsDatetime()), out);
    case TypeTag::kDouble:
      return PutFixed64(std::bit_cast<uint64_t>(v.AsDouble()), out);
    case TypeTag::kPoint:
      out = PutFixed64(std::bit_cast<uint64_t>(v.AsPoint().x), out);
      return PutFixed64(std::bit_cast<uint64_t>(v.AsPoint().y), out);
    case TypeTag::kString:
      return PutBytes(v.AsString(), out);
    case TypeTag::kOrderedList:
      out = PutVarint(v.AsList().size(), out);
      for (const Value& item : v.AsList()) out = PutValue(item, out);
      return out;
    case TypeTag::kRecord:
      out = PutVarint(v.AsRecord().size(), out);
      for (const auto& [name, field] : v.AsRecord()) {
        out = PutBytes(name, out);
        out = PutValue(field, out);
      }
      return out;
  }
  return out;
}

// Bounds-checked cursor over the input. A failed read records what was
// being read and where, and every later read fails too.
class Reader {
 public:
  explicit Reader(std::string_view bytes)
      : begin_(bytes.data()), p_(bytes.data()), end_(p_ + bytes.size()) {}

  bool Byte(uint8_t* out, const char* what) {
    if (p_ == end_) return Fail(what);
    *out = static_cast<uint8_t>(*p_++);
    return true;
  }

  bool Fixed64(uint64_t* out, const char* what) {
    if (end_ - p_ < 8) return Fail(what);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p_[i])) << (8 * i);
    }
    p_ += 8;
    *out = v;
    return true;
  }

  bool Varint(uint64_t* out, const char* what) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) return Fail(what);
      const uint8_t byte = static_cast<uint8_t>(*p_++);
      // The tenth byte may only carry the top bit of a 64-bit value.
      if (shift == 63 && byte > 1) return Fail(what);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return Fail(what);
  }

  /// A count of items, each of which needs at least `min_item_bytes`.
  bool Count(uint64_t* out, uint64_t min_item_bytes, const char* what) {
    if (!Varint(out, what)) return false;
    if (*out > remaining() / min_item_bytes) return Fail(what);
    return true;
  }

  bool Bytes(std::string_view* out, const char* what) {
    uint64_t len = 0;
    if (!Count(&len, 1, what)) return false;
    *out = std::string_view(p_, static_cast<size_t>(len));
    p_ += len;
    return true;
  }

  bool Fail(const char* what) {
    if (error_ == nullptr) {
      error_ = what;
      error_offset_ = static_cast<size_t>(p_ - begin_);
    }
    p_ = end_;
    return false;
  }

  uint64_t remaining() const { return static_cast<uint64_t>(end_ - p_); }
  const char* error() const { return error_; }
  size_t error_offset() const { return error_offset_; }

 private:
  const char* const begin_;
  const char* p_;
  const char* const end_;
  const char* error_ = nullptr;
  size_t error_offset_ = 0;
};

bool DecodeValue(Reader* in, int depth, Value* out) {
  uint8_t tag = 0;
  if (!in->Byte(&tag, "tag")) return false;
  switch (static_cast<TypeTag>(tag)) {
    case TypeTag::kNull:
      *out = Value::Null();
      return true;
    case TypeTag::kBoolean: {
      uint8_t b = 0;
      if (!in->Byte(&b, "boolean")) return false;
      if (b > 1) return in->Fail("boolean");
      *out = Value::Boolean(b == 1);
      return true;
    }
    case TypeTag::kInt64:
    case TypeTag::kDatetime: {
      uint64_t bits = 0;
      if (!in->Fixed64(&bits, "int64")) return false;
      const int64_t i = static_cast<int64_t>(bits);
      *out = static_cast<TypeTag>(tag) == TypeTag::kInt64 ? Value::Int64(i)
                                                          : Value::Datetime(i);
      return true;
    }
    case TypeTag::kDouble: {
      uint64_t bits = 0;
      if (!in->Fixed64(&bits, "double")) return false;
      *out = Value::Double(std::bit_cast<double>(bits));
      return true;
    }
    case TypeTag::kPoint: {
      uint64_t x = 0;
      uint64_t y = 0;
      if (!in->Fixed64(&x, "point") || !in->Fixed64(&y, "point")) {
        return false;
      }
      *out = Value::MakePoint(std::bit_cast<double>(x),
                              std::bit_cast<double>(y));
      return true;
    }
    case TypeTag::kString: {
      std::string_view s;
      if (!in->Bytes(&s, "string")) return false;
      *out = Value::String(std::string(s));
      return true;
    }
    case TypeTag::kOrderedList: {
      if (depth >= kMaxNestingDepth) return in->Fail("nesting depth");
      uint64_t count = 0;
      if (!in->Count(&count, 1, "list count")) return false;
      ListVec items(static_cast<size_t>(count));
      for (Value& item : items) {
        if (!DecodeValue(in, depth + 1, &item)) return false;
      }
      *out = Value::List(std::move(items));
      return true;
    }
    case TypeTag::kRecord: {
      if (depth >= kMaxNestingDepth) return in->Fail("nesting depth");
      uint64_t count = 0;
      // A field is at least a one-byte name length and a one-byte tag.
      if (!in->Count(&count, 2, "field count")) return false;
      FieldVec fields(static_cast<size_t>(count));
      for (auto& [name, value] : fields) {
        std::string_view bytes;
        if (!in->Bytes(&bytes, "field name")) return false;
        name.assign(bytes);
        if (!DecodeValue(in, depth + 1, &value)) return false;
      }
      *out = Value::Record(std::move(fields));
      return true;
    }
  }
  return in->Fail("tag");
}

}  // namespace

common::Status AppendBinary(const Value& value, std::string* out) {
  const size_t size = EncodedSize(value, 0);
  if (size == kTooDeep) {
    return common::Status::InvalidArgument(
        "binary ADM: value nested deeper than " +
        std::to_string(kMaxNestingDepth));
  }
  const size_t start = out->size();
  out->resize(start + size);
  PutValue(value, out->data() + start);
  return common::Status::OK();
}

common::Result<Value> DecodeBinary(std::string_view bytes) {
  Reader in(bytes);
  Value value;
  if (DecodeValue(&in, 0, &value)) {
    if (in.remaining() == 0) return value;
    in.Fail("trailing bytes");
  }
  return common::Status::Corruption(
      std::string("binary ADM: bad ") + in.error() + " at offset " +
      std::to_string(in.error_offset()) + " of " +
      std::to_string(bytes.size()));
}

}  // namespace adm
}  // namespace asterix
