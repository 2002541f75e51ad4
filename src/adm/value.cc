#include "adm/value.h"

#include <cassert>
#include <charconv>
#include <cstring>
#include <string_view>

namespace asterix {
namespace adm {

const char* TypeTagName(TypeTag tag) {
  switch (tag) {
    case TypeTag::kNull:
      return "null";
    case TypeTag::kBoolean:
      return "boolean";
    case TypeTag::kInt64:
      return "int64";
    case TypeTag::kDouble:
      return "double";
    case TypeTag::kString:
      return "string";
    case TypeTag::kPoint:
      return "point";
    case TypeTag::kDatetime:
      return "datetime";
    case TypeTag::kOrderedList:
      return "orderedlist";
    case TypeTag::kRecord:
      return "record";
  }
  return "?";
}

Value Value::Boolean(bool b) {
  Value v;
  v.tag_ = TypeTag::kBoolean;
  v.data_ = b;
  return v;
}

Value Value::Int64(int64_t i) {
  Value v;
  v.tag_ = TypeTag::kInt64;
  v.data_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.tag_ = TypeTag::kDouble;
  v.data_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.tag_ = TypeTag::kString;
  v.data_ = std::move(s);
  return v;
}

Value Value::MakePoint(double x, double y) {
  Value v;
  v.tag_ = TypeTag::kPoint;
  v.data_ = Point{x, y};
  return v;
}

Value Value::Datetime(int64_t epoch_ms) {
  Value v;
  v.tag_ = TypeTag::kDatetime;
  v.data_ = epoch_ms;
  return v;
}

Value Value::List(ListVec items) {
  Value v;
  v.tag_ = TypeTag::kOrderedList;
  v.data_ = std::make_shared<ListVec>(std::move(items));
  return v;
}

Value Value::Record(FieldVec fields) {
  Value v;
  v.tag_ = TypeTag::kRecord;
  v.data_ = std::make_shared<FieldVec>(std::move(fields));
  return v;
}

bool Value::AsBoolean() const {
  assert(tag_ == TypeTag::kBoolean);
  return std::get<bool>(data_);
}

int64_t Value::AsInt64() const {
  assert(tag_ == TypeTag::kInt64);
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  assert(tag_ == TypeTag::kDouble);
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  assert(tag_ == TypeTag::kString);
  return std::get<std::string>(data_);
}

const Point& Value::AsPoint() const {
  assert(tag_ == TypeTag::kPoint);
  return std::get<Point>(data_);
}

int64_t Value::AsDatetime() const {
  assert(tag_ == TypeTag::kDatetime);
  return std::get<int64_t>(data_);
}

const ListVec& Value::AsList() const {
  assert(tag_ == TypeTag::kOrderedList);
  return *std::get<std::shared_ptr<ListVec>>(data_);
}

const FieldVec& Value::AsRecord() const {
  assert(tag_ == TypeTag::kRecord);
  return *std::get<std::shared_ptr<FieldVec>>(data_);
}

double Value::AsNumber() const {
  if (tag_ == TypeTag::kInt64) return static_cast<double>(AsInt64());
  assert(tag_ == TypeTag::kDouble);
  return AsDouble();
}

const Value* Value::GetField(const std::string& name) const {
  if (tag_ != TypeTag::kRecord) return nullptr;
  for (const auto& [field_name, value] : AsRecord()) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

namespace {
// Copy-on-write: returns a uniquely-owned copy of the shared payload.
template <typename T>
std::shared_ptr<T> Detach(std::shared_ptr<T>& ptr) {
  if (ptr.use_count() > 1) ptr = std::make_shared<T>(*ptr);
  return ptr;
}
}  // namespace

void Value::SetField(const std::string& name, Value v) {
  if (tag_ != TypeTag::kRecord) return;
  auto& ptr = std::get<std::shared_ptr<FieldVec>>(data_);
  for (size_t i = 0; i < ptr->size(); ++i) {
    if ((*ptr)[i].first == name) {
      (*Detach(ptr))[i].second = std::move(v);
      return;
    }
  }
  if (ptr.use_count() > 1) {
    // Copy-on-write that adds a field: size the copy for it, so a derived
    // record (a UDF's output, often stored) holds no spare capacity.
    auto copy = std::make_shared<FieldVec>();
    copy->reserve(ptr->size() + 1);
    copy->assign(ptr->begin(), ptr->end());
    ptr = std::move(copy);
  }
  ptr->emplace_back(name, std::move(v));
}

bool Value::RemoveField(const std::string& name) {
  if (tag_ != TypeTag::kRecord) return false;
  auto& ptr = std::get<std::shared_ptr<FieldVec>>(data_);
  auto fields = Detach(ptr);
  for (auto it = fields->begin(); it != fields->end(); ++it) {
    if (it->first == name) {
      fields->erase(it);
      return true;
    }
  }
  return false;
}

void Value::Append(Value v) {
  if (tag_ != TypeTag::kOrderedList) return;
  auto& ptr = std::get<std::shared_ptr<ListVec>>(data_);
  Detach(ptr)->push_back(std::move(v));
}

bool Value::operator==(const Value& other) const {
  if (tag_ != other.tag_) return false;
  switch (tag_) {
    case TypeTag::kNull:
      return true;
    case TypeTag::kBoolean:
      return AsBoolean() == other.AsBoolean();
    case TypeTag::kInt64:
      return AsInt64() == other.AsInt64();
    case TypeTag::kDouble:
      return AsDouble() == other.AsDouble();
    case TypeTag::kString:
      return AsString() == other.AsString();
    case TypeTag::kPoint:
      return AsPoint() == other.AsPoint();
    case TypeTag::kDatetime:
      return AsDatetime() == other.AsDatetime();
    case TypeTag::kOrderedList:
      return AsList() == other.AsList();
    case TypeTag::kRecord:
      return AsRecord() == other.AsRecord();
  }
  return false;
}

namespace {
// The serializer computes an upper bound on the text's length, writes the
// text through a raw pointer into a per-thread buffer of at least that
// size, and copies it out at its exact size: one allocation per call, and
// no capacity check per piece written.

constexpr size_t kMaxIntChars = 20;     // "-9223372036854775808"
// "-1.2345678901234567e-308"; an integral spelling plus ".0" is shorter.
constexpr size_t kMaxDoubleChars = 24;

// Every byte of a string may need a two-byte escape.
size_t EscapedBound(const std::string& s) { return 2 * s.size() + 2; }

size_t AdmBound(const Value& v) {
  switch (v.tag()) {
    case TypeTag::kNull:
    case TypeTag::kBoolean:
      return 5;
    case TypeTag::kInt64:
      return kMaxIntChars;
    case TypeTag::kDouble:
      return kMaxDoubleChars;
    case TypeTag::kString:
      return EscapedBound(v.AsString());
    case TypeTag::kPoint:
      return 9 + 2 * kMaxDoubleChars;  // "point(" x ", " y ")"
    case TypeTag::kDatetime:
      return 10 + kMaxIntChars;  // "datetime(" ms ")"
    case TypeTag::kOrderedList: {
      size_t total = 2;
      for (const Value& item : v.AsList()) total += AdmBound(item) + 2;
      return total;
    }
    case TypeTag::kRecord: {
      size_t total = 2;
      for (const auto& [name, value] : v.AsRecord()) {
        total += EscapedBound(name) + 4 + AdmBound(value);  // ": ", ", "
      }
      return total;
    }
  }
  return 0;
}

char* WriteBytes(const char* bytes, size_t n, char* out) {
  std::memcpy(out, bytes, n);
  return out + n;
}

char* WriteLiteral(std::string_view literal, char* out) {
  return WriteBytes(literal.data(), literal.size(), out);
}

// Writes `s` quoted, copying each run between escaped bytes in one call.
char* WriteEscaped(const std::string& s, char* out) {
  *out++ = '"';
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    char escape;
    switch (*p) {
      case '"':
      case '\\':
        escape = *p;
        break;
      case '\n':
        escape = 'n';
        break;
      case '\t':
        escape = 't';
        break;
      case '\r':
        escape = 'r';
        break;
      default:
        continue;
    }
    out = WriteBytes(run, static_cast<size_t>(p - run), out);
    *out++ = '\\';
    *out++ = escape;
    run = p + 1;
  }
  out = WriteBytes(run, static_cast<size_t>(end - run), out);
  *out++ = '"';
  return out;
}

char* WriteInt(int64_t i, char* out) {
  return std::to_chars(out, out + kMaxIntChars, i).ptr;
}

// Same bytes as printf("%.17g"): to_chars with an explicit precision is
// specified to match printf with the corresponding conversion.
char* WriteDouble(double d, char* out) {
  char* end = std::to_chars(out, out + kMaxDoubleChars, d,
                            std::chars_format::general, 17)
                  .ptr;
  // Ensure doubles round-trip as doubles (never bare integers).
  const std::string_view text(out, static_cast<size_t>(end - out));
  if (text.find_first_of(".eEnN") == std::string_view::npos) {
    end = WriteLiteral(".0", end);
  }
  return end;
}

char* WriteAdm(const Value& v, char* out) {
  switch (v.tag()) {
    case TypeTag::kNull:
      return WriteLiteral("null", out);
    case TypeTag::kBoolean:
      return WriteLiteral(v.AsBoolean() ? "true" : "false", out);
    case TypeTag::kInt64:
      return WriteInt(v.AsInt64(), out);
    case TypeTag::kDouble:
      return WriteDouble(v.AsDouble(), out);
    case TypeTag::kString:
      return WriteEscaped(v.AsString(), out);
    case TypeTag::kPoint: {
      const Point& p = v.AsPoint();
      out = WriteLiteral("point(", out);
      out = WriteDouble(p.x, out);
      out = WriteLiteral(", ", out);
      out = WriteDouble(p.y, out);
      *out++ = ')';
      return out;
    }
    case TypeTag::kDatetime:
      out = WriteLiteral("datetime(", out);
      out = WriteInt(v.AsDatetime(), out);
      *out++ = ')';
      return out;
    case TypeTag::kOrderedList: {
      *out++ = '[';
      const ListVec& items = v.AsList();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out = WriteLiteral(", ", out);
        out = WriteAdm(items[i], out);
      }
      *out++ = ']';
      return out;
    }
    case TypeTag::kRecord: {
      *out++ = '{';
      const FieldVec& fields = v.AsRecord();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out = WriteLiteral(", ", out);
        out = WriteEscaped(fields[i].first, out);
        out = WriteLiteral(": ", out);
        out = WriteAdm(fields[i].second, out);
      }
      *out++ = '}';
      return out;
    }
  }
  return out;
}
}  // namespace

std::string Value::ToAdmString() const {
  // Grows to the largest value this thread has serialized and stays there.
  thread_local std::string buffer;
  const size_t bound = AdmBound(*this);
  if (buffer.size() < bound) buffer.resize(bound);
  char* const begin = buffer.data();
  return std::string(begin, WriteAdm(*this, begin));
}

size_t Value::ApproxSizeBytes() const {
  switch (tag_) {
    case TypeTag::kNull:
    case TypeTag::kBoolean:
      return 8;
    case TypeTag::kInt64:
    case TypeTag::kDouble:
    case TypeTag::kDatetime:
      return 16;
    case TypeTag::kString:
      return 24 + AsString().size();
    case TypeTag::kPoint:
      return 24;
    case TypeTag::kOrderedList: {
      size_t total = 24;
      for (const Value& v : AsList()) total += v.ApproxSizeBytes();
      return total;
    }
    case TypeTag::kRecord: {
      size_t total = 24;
      for (const auto& [name, v] : AsRecord()) {
        total += 24 + name.size() + v.ApproxSizeBytes();
      }
      return total;
    }
  }
  return 8;
}

}  // namespace adm
}  // namespace asterix
