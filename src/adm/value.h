// ADM (AsterixDB Data Model) values: a semi-structured model supporting
// nulls, primitives, spatial points, datetimes, ordered lists and open
// records (records that may carry fields beyond their declared type).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace asterix {
namespace adm {

enum class TypeTag : uint8_t {
  kNull = 0,
  kBoolean,
  kInt64,
  kDouble,
  kString,
  kPoint,
  kDatetime,
  kOrderedList,
  kRecord,
};

/// Human-readable name ("int64", "point", ...).
const char* TypeTagName(TypeTag tag);

/// 2-D spatial point (latitude/longitude in the paper's tweet workload).
struct Point {
  double x = 0.0;
  double y = 0.0;
  bool operator==(const Point& other) const {
    return x == other.x && y == other.y;
  }
};

/// Deepest nesting of lists and records inside each other that every ADM
/// layer accepts: the text parser, the binary encoder and the binary
/// decoder all refuse deeper values, so a value that enters the store can
/// always be read back.
inline constexpr int kMaxNestingDepth = 512;

class Value;

/// Ordered field list; ADM records preserve field order and may be "open"
/// (carrying fields not declared by their datatype).
using FieldVec = std::vector<std::pair<std::string, Value>>;
using ListVec = std::vector<Value>;

/// An immutable-ish ADM value. Records and lists own their children.
class Value {
 public:
  /// Default-constructed value is null.
  Value() : tag_(TypeTag::kNull) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool b);
  static Value Int64(int64_t i);
  static Value Double(double d);
  static Value String(std::string s);
  static Value MakePoint(double x, double y);
  /// Datetime as milliseconds since the Unix epoch.
  static Value Datetime(int64_t epoch_ms);
  static Value List(ListVec items);
  static Value Record(FieldVec fields);

  TypeTag tag() const { return tag_; }
  bool is_null() const { return tag_ == TypeTag::kNull; }
  bool is_record() const { return tag_ == TypeTag::kRecord; }
  bool is_list() const { return tag_ == TypeTag::kOrderedList; }

  /// Typed accessors; the caller must check tag() first (asserts in debug).
  bool AsBoolean() const;
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const Point& AsPoint() const;
  int64_t AsDatetime() const;
  const ListVec& AsList() const;
  const FieldVec& AsRecord() const;

  /// Numeric coercion: int64 or double as double.
  double AsNumber() const;

  /// Record field lookup; returns nullptr if absent or not a record.
  const Value* GetField(const std::string& name) const;

  /// Record field mutation helpers (used by UDFs building derived records).
  /// No-ops unless this value is a record.
  void SetField(const std::string& name, Value v);
  bool RemoveField(const std::string& name);

  /// List append helper; no-op unless this value is a list.
  void Append(Value v);

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Serializes to ADM text (JSON superset: point(x, y), datetime(ms)).
  /// Doubles are written as printf("%.17g") would, plus ".0" when that
  /// reads as an integer, so they reparse bit-identical; non-finite ones
  /// as inf, -inf, nan, -nan. The output is byte-stable and is returned
  /// at its exact size with one allocation. (Stored records use the
  /// binary encoding of adm/binary.h instead.)
  std::string ToAdmString() const;

  /// Approximate in-memory footprint in bytes (for memory budgeting in
  /// the Basic/Spill policy runtimes).
  size_t ApproxSizeBytes() const;

 private:
  TypeTag tag_;
  std::variant<std::monostate, bool, int64_t, double, std::string, Point,
               std::shared_ptr<ListVec>, std::shared_ptr<FieldVec>>
      data_;
};

}  // namespace adm
}  // namespace asterix

