#include <cmath>
#include <cstdio>
#include <cstring>
#include <bit>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "adm/binary.h"
#include "adm/datatype.h"
#include "adm/parser.h"
#include "adm/value.h"
#include "common/rng.h"
#include "gen/tweetgen.h"

namespace asterix {
namespace adm {
namespace {

Value SampleTweet() {
  return Value::Record({
      {"id", Value::String("t1")},
      {"user",
       Value::Record({{"screen_name", Value::String("alice")},
                      {"followers_count", Value::Int64(42)}})},
      {"latitude", Value::Double(33.5)},
      {"longitude", Value::Double(-117.8)},
      {"created_at", Value::Datetime(1420070400000)},
      {"message_text", Value::String("hello #world")},
  });
}

TEST(ValueTest, PrimitivesRoundTripAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Boolean(true).AsBoolean(), true);
  EXPECT_EQ(Value::Int64(-5).AsInt64(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Datetime(99).AsDatetime(), 99);
  Point p = Value::MakePoint(1.0, 2.0).AsPoint();
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(ValueTest, RecordFieldAccess) {
  Value tweet = SampleTweet();
  ASSERT_NE(tweet.GetField("id"), nullptr);
  EXPECT_EQ(tweet.GetField("id")->AsString(), "t1");
  EXPECT_EQ(tweet.GetField("nope"), nullptr);
  const Value* user = tweet.GetField("user");
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(user->GetField("followers_count")->AsInt64(), 42);
}

TEST(ValueTest, SetFieldAddsAndReplaces) {
  Value r = Value::Record({{"a", Value::Int64(1)}});
  r.SetField("b", Value::Int64(2));
  EXPECT_EQ(r.GetField("b")->AsInt64(), 2);
  r.SetField("a", Value::Int64(9));
  EXPECT_EQ(r.GetField("a")->AsInt64(), 9);
  EXPECT_EQ(r.AsRecord().size(), 2u);
}

TEST(ValueTest, CopyOnWriteIsolation) {
  Value a = Value::Record({{"x", Value::Int64(1)}});
  Value b = a;  // shares payload
  b.SetField("x", Value::Int64(2));
  EXPECT_EQ(a.GetField("x")->AsInt64(), 1);
  EXPECT_EQ(b.GetField("x")->AsInt64(), 2);
}

TEST(ValueTest, ListAppendCopyOnWrite) {
  Value a = Value::List({Value::Int64(1)});
  Value b = a;
  b.Append(Value::Int64(2));
  EXPECT_EQ(a.AsList().size(), 1u);
  EXPECT_EQ(b.AsList().size(), 2u);
}

TEST(ValueTest, RemoveField) {
  Value r = Value::Record(
      {{"a", Value::Int64(1)}, {"b", Value::Int64(2)}});
  EXPECT_TRUE(r.RemoveField("a"));
  EXPECT_FALSE(r.RemoveField("a"));
  EXPECT_EQ(r.GetField("a"), nullptr);
}

TEST(ValueTest, EqualityIsDeep) {
  EXPECT_EQ(SampleTweet(), SampleTweet());
  Value modified = SampleTweet();
  modified.SetField("id", Value::String("t2"));
  EXPECT_NE(SampleTweet(), modified);
}

TEST(ValueTest, ApproxSizeGrowsWithContent) {
  Value small = Value::Record({{"a", Value::Int64(1)}});
  Value big = SampleTweet();
  EXPECT_GT(big.ApproxSizeBytes(), small.ApproxSizeBytes());
}

TEST(SerializeTest, AdmTextForms) {
  EXPECT_EQ(Value::Null().ToAdmString(), "null");
  EXPECT_EQ(Value::Boolean(false).ToAdmString(), "false");
  EXPECT_EQ(Value::Int64(7).ToAdmString(), "7");
  EXPECT_EQ(Value::Double(1.5).ToAdmString(), "1.5");
  EXPECT_EQ(Value::String("a\"b").ToAdmString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::MakePoint(1, 2).ToAdmString(), "point(1.0, 2.0)");
  EXPECT_EQ(Value::Datetime(5).ToAdmString(), "datetime(5)");
  EXPECT_EQ(Value::List({Value::Int64(1), Value::Int64(2)}).ToAdmString(),
            "[1, 2]");
}

TEST(ParserTest, RoundTripsComplexValue) {
  Value tweet = SampleTweet();
  auto parsed = ParseAdm(tweet.ToAdmString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, tweet);
}

TEST(ParserTest, ParsesScalars) {
  EXPECT_EQ(ParseAdm("42").value().AsInt64(), 42);
  EXPECT_EQ(ParseAdm("-3").value().AsInt64(), -3);
  EXPECT_DOUBLE_EQ(ParseAdm("2.75").value().AsDouble(), 2.75);
  EXPECT_DOUBLE_EQ(ParseAdm("1e3").value().AsDouble(), 1000.0);
  EXPECT_TRUE(ParseAdm("null").value().is_null());
  EXPECT_TRUE(ParseAdm("true").value().AsBoolean());
  EXPECT_EQ(ParseAdm("\"hi\\n\"").value().AsString(), "hi\n");
}

TEST(ParserTest, ParsesConstructors) {
  Value p = ParseAdm("point(1.5, -2.5)").value();
  EXPECT_DOUBLE_EQ(p.AsPoint().x, 1.5);
  EXPECT_DOUBLE_EQ(p.AsPoint().y, -2.5);
  EXPECT_EQ(ParseAdm("datetime(1000)").value().AsDatetime(), 1000);
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseAdm("{").ok());
  EXPECT_FALSE(ParseAdm("[1,]").ok());
  EXPECT_FALSE(ParseAdm("\"unterminated").ok());
  EXPECT_FALSE(ParseAdm("12abc").ok());
  EXPECT_FALSE(ParseAdm("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseAdm("point(1)").ok());
  EXPECT_FALSE(ParseAdm("").ok());
  EXPECT_FALSE(ParseAdm("1 2").ok());
}

TEST(ParserTest, ErrorsIncludeOffset) {
  auto r = ParseAdm("{\"a\": @}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

// Every malformed input reports the same message at the same offset.
struct MalformedCase {
  const char* input;
  const char* message;
};

class MalformedInputTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedInputTest, ExactMessageAndOffset) {
  auto r = ParseAdm(GetParam().input);
  ASSERT_FALSE(r.ok()) << r->ToAdmString();
  EXPECT_EQ(r.status().code(), common::Status::Code::kCorruption);
  EXPECT_EQ(r.status().message(), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedInputTest,
    ::testing::Values(
        MalformedCase{"{\"a\":1,}",
                      "ADM parse error at offset 7: expected field name"},
        MalformedCase{"{\"a\":1, 5}",
                      "ADM parse error at offset 8: expected field name"},
        MalformedCase{"1.2.3",
                      "ADM parse error at offset 5: malformed double '1.2.3'"},
        MalformedCase{"1e", "ADM parse error at offset 2: malformed double '1e'"},
        MalformedCase{"1e+",
                      "ADM parse error at offset 3: malformed double '1e+'"},
        MalformedCase{"-e5",
                      "ADM parse error at offset 3: malformed double '-e5'"},
        MalformedCase{"-", "ADM parse error at offset 1: malformed number"},
        MalformedCase{"--1", "ADM parse error at offset 1: malformed number"},
        MalformedCase{"-i", "ADM parse error at offset 1: malformed number"},
        MalformedCase{"point(1,)",
                      "ADM parse error at offset 8: malformed number"},
        MalformedCase{"point(1)",
                      "ADM parse error at offset 7: expected ',' in point"},
        MalformedCase{"point 1",
                      "ADM parse error at offset 6: expected '(' after point"},
        MalformedCase{"datetime(1.5)",
                      "ADM parse error at offset 13: datetime requires an "
                      "integer epoch-ms argument"},
        MalformedCase{"datetime(x)",
                      "ADM parse error at offset 9: malformed number"},
        MalformedCase{"{\"a\":\"\\q\"}",
                      "ADM parse error at offset 8: bad escape '\\q'"},
        MalformedCase{"\"unterminated",
                      "ADM parse error at offset 13: unterminated string"},
        MalformedCase{"\"esc\\",
                      "ADM parse error at offset 5: unterminated escape"},
        MalformedCase{"{\"a\" 1}",
                      "ADM parse error at offset 5: expected ':' after field "
                      "name"},
        MalformedCase{"{\"a\":1 \"b\":2}",
                      "ADM parse error at offset 7: expected ',' or '}' in "
                      "record"},
        MalformedCase{"[1 2]",
                      "ADM parse error at offset 3: expected ',' or ']' in "
                      "list"},
        MalformedCase{"[1,]",
                      "ADM parse error at offset 3: unexpected character ']'"},
        MalformedCase{"", "ADM parse error at offset 0: unexpected end of input"},
        MalformedCase{"12abc",
                      "ADM parse error at offset 2: trailing characters after "
                      "value"},
        MalformedCase{"nul", "ADM parse error at offset 0: expected 'null'"},
        MalformedCase{"fals", "ADM parse error at offset 0: expected 'false'"},
        MalformedCase{"in",
                      "ADM parse error at offset 0: unexpected character 'i'"},
        MalformedCase{"infinity",
                      "ADM parse error at offset 3: trailing characters after "
                      "value"}));

TEST(ParserTest, NestedErrorUnwindsScratch) {
  // The error sits in a list inside a record inside a list inside a
  // record, with fields and items already gathered at every level.
  auto bad = ParseAdm("{\"a\": [1, {\"b\": [2, @]}], \"c\": 3}");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "ADM parse error at offset 20: unexpected character '@'");
  // A later parse on the same thread sees none of the half-built
  // levels: each record holds exactly its own fields.
  auto good = ParseAdm("{\"x\": [true], \"y\": {\"z\": null}}");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->AsRecord().size(), 2u);
  EXPECT_EQ(good->GetField("x")->AsList().size(), 1u);
  EXPECT_EQ(good->GetField("y")->AsRecord().size(), 1u);
  EXPECT_EQ(good->ToAdmString(), "{\"x\": [true], \"y\": {\"z\": null}}");
}

TEST(ParserTest, EscapesAtStartMiddleAndEndOfLongStrings) {
  const std::string cases[] = {
      "\\\"starts with a quote, then a long tail",
      "a long head, then \\n a newline and \\t a tab",
      "a long head that ends in a backslash \\\\",
      "\\r\\n\\t\\\"\\\\ only escapes, then sixteen+ more bytes",
  };
  const std::string decoded[] = {
      "\"starts with a quote, then a long tail",
      "a long head, then \n a newline and \t a tab",
      "a long head that ends in a backslash \\",
      "\r\n\t\"\\ only escapes, then sixteen+ more bytes",
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    const std::string text = "\"" + cases[i] + "\"";
    auto parsed = ParseAdm(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->AsString(), decoded[i]);
    EXPECT_EQ(parsed->ToAdmString(), text);
  }
  // '\/' decodes to '/', which is written back unescaped.
  EXPECT_EQ(ParseAdm("\"a\\/b, long enough to leave SSO\"")->AsString(),
            "a/b, long enough to leave SSO");
}

TEST(ParserTest, Int64LimitsAndSaturation) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(ParseAdm("9223372036854775807")->AsInt64(), max);
  EXPECT_EQ(ParseAdm("-9223372036854775808")->AsInt64(), min);
  // Out of range saturates, as strtoll does.
  EXPECT_EQ(ParseAdm("9223372036854775808")->AsInt64(), max);
  EXPECT_EQ(ParseAdm("-99999999999999999999")->AsInt64(), min);
  EXPECT_EQ(Value::Int64(max).ToAdmString(), "9223372036854775807");
  EXPECT_EQ(Value::Int64(min).ToAdmString(), "-9223372036854775808");
  EXPECT_EQ(ParseAdm("datetime(-9223372036854775808)")->AsDatetime(), min);
}

// The printf("%.17g") spelling of `d`, plus ".0" when that reads as an
// integer: the serializer's contract for doubles.
std::string PrintfDouble(double d) {
  char buf[64];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
  std::string s(buf, static_cast<size_t>(n));
  if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
  return s;
}

TEST(SerializeTest, DoublesMatchPrintfAndReparseBitIdentical) {
  for (double d : {0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e21, 123.0,
                   -117.8, 33.5, 1e-7, 0.0}) {
    const std::string text = Value::Double(d).ToAdmString();
    EXPECT_EQ(text, PrintfDouble(d));
    auto parsed = ParseAdm(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->tag(), TypeTag::kDouble) << text;
    const double back = parsed->AsDouble();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof(d)), 0) << text;
  }
  EXPECT_EQ(Value::Double(-0.0).ToAdmString(), "-0.0");
  EXPECT_EQ(Value::Double(123.0).ToAdmString(), "123.0");
  EXPECT_EQ(Value::Double(1e21).ToAdmString(), "1e+21");
  // strtod's range handling is kept: overflow saturates to infinity and
  // underflow flushes to zero.
  EXPECT_EQ(ParseAdm("1e-999")->AsDouble(), 0.0);
}

TEST(SerializeTest, NonFiniteDoublesRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ParseAdm("1e999")->AsDouble(), inf);
  EXPECT_EQ(ParseAdm("-1e999")->AsDouble(), -inf);
  const std::pair<double, const char*> cases[] = {
      {inf, "inf"}, {-inf, "-inf"}, {nan, "nan"}, {-nan, "-nan"}};
  for (const auto& [d, text] : cases) {
    EXPECT_EQ(Value::Double(d).ToAdmString(), text);
    EXPECT_EQ(Value::Double(d).ToAdmString(), PrintfDouble(d));
    auto parsed = ParseAdm(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->tag(), TypeTag::kDouble);
    EXPECT_EQ(std::signbit(parsed->AsDouble()), std::signbit(d)) << text;
    EXPECT_EQ(std::isnan(parsed->AsDouble()), std::isnan(d)) << text;
    EXPECT_EQ(parsed->ToAdmString(), text);
  }
  // Inside records and points too: this is the shape a WAL entry or a
  // spilled frame carries.
  const std::string record =
      "{\"x\": inf, \"y\": -inf, \"z\": nan, \"at\": point(-nan, inf)}";
  auto parsed = ParseAdm(record);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToAdmString(), record);
  EXPECT_EQ(ParseAdm(ParseAdm("{\"x\": 1e999}")->ToAdmString())
                ->GetField("x")
                ->AsDouble(),
            inf);
}

class AdmRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AdmRoundTripTest, ParseSerializeParseIsIdentity) {
  auto first = ParseAdm(GetParam());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = ParseAdm(first->ToAdmString());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, AdmRoundTripTest,
    ::testing::Values(
        "null", "true", "false", "0", "-9223372036854775807", "3.25",
        "-1e-3", "\"\"", "\"escape \\\\ \\\" \\n\"", "[]", "[[[1]]]",
        "{}", "{\"k\": {\"k\": {\"k\": null}}}",
        "point(0.0, 0.0)", "datetime(0)",
        "{\"mixed\": [1, 2.5, \"s\", point(1, 2), {\"n\": []}]}"));

TEST(DatatypeTest, OpenTypeAdmitsExtraFields) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("T", /*open=*/true)
                                .Field("id", TypeTag::kString)
                                .Build())
                  .ok());
  Value r = Value::Record(
      {{"id", Value::String("a")}, {"extra", Value::Int64(1)}});
  EXPECT_TRUE(registry.Conforms(r, "T").ok());
}

TEST(DatatypeTest, ClosedTypeRejectsExtraFields) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("T", /*open=*/false)
                                .Field("id", TypeTag::kString)
                                .Build())
                  .ok());
  Value r = Value::Record(
      {{"id", Value::String("a")}, {"extra", Value::Int64(1)}});
  EXPECT_FALSE(registry.Conforms(r, "T").ok());
}

TEST(DatatypeTest, MissingRequiredFieldFails) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("T")
                                .Field("id", TypeTag::kString)
                                .Field("n", TypeTag::kInt64)
                                .Build())
                  .ok());
  Value r = Value::Record({{"id", Value::String("a")}});
  auto status = registry.Conforms(r, "T");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("n"), std::string::npos);
}

TEST(DatatypeTest, OptionalFieldMayBeAbsentOrNull) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("T")
                                .Field("id", TypeTag::kString)
                                .Field("loc", TypeTag::kPoint,
                                       /*optional=*/true)
                                .Build())
                  .ok());
  EXPECT_TRUE(
      registry.Conforms(Value::Record({{"id", Value::String("a")}}), "T")
          .ok());
  EXPECT_TRUE(registry
                  .Conforms(Value::Record({{"id", Value::String("a")},
                                           {"loc", Value::Null()}}),
                            "T")
                  .ok());
  EXPECT_FALSE(registry
                   .Conforms(Value::Record({{"id", Value::String("a")},
                                            {"loc", Value::Int64(3)}}),
                             "T")
                   .ok());
}

TEST(DatatypeTest, NestedRecordValidation) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("User", /*open=*/false)
                                .Field("name", TypeTag::kString)
                                .Build())
                  .ok());
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("Tweet")
                                .Field("id", TypeTag::kString)
                                .RecordField("user", "User")
                                .Build())
                  .ok());
  Value good = Value::Record(
      {{"id", Value::String("1")},
       {"user", Value::Record({{"name", Value::String("a")}})}});
  EXPECT_TRUE(registry.Conforms(good, "Tweet").ok());
  Value bad = Value::Record(
      {{"id", Value::String("1")},
       {"user", Value::Record({{"nom", Value::String("a")}})}});
  EXPECT_FALSE(registry.Conforms(bad, "Tweet").ok());
}

TEST(DatatypeTest, ListElementValidation) {
  TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(TypeBuilder("T")
                                .Field("id", TypeTag::kString)
                                .ListField("topics", TypeTag::kString)
                                .Build())
                  .ok());
  Value good = Value::Record(
      {{"id", Value::String("1")},
       {"topics", Value::List({Value::String("x")})}});
  EXPECT_TRUE(registry.Conforms(good, "T").ok());
  Value bad = Value::Record(
      {{"id", Value::String("1")},
       {"topics", Value::List({Value::Int64(1)})}});
  EXPECT_FALSE(registry.Conforms(bad, "T").ok());
}

TEST(DatatypeTest, DuplicateRegistrationFails) {
  TypeRegistry registry;
  EXPECT_TRUE(registry.Register(TypeBuilder("T").Build()).ok());
  EXPECT_FALSE(registry.Register(TypeBuilder("T").Build()).ok());
}

// --- binary codec -------------------------------------------------------

// Structural equality that compares doubles by their bits, so NaN equals
// itself and -0.0 differs from 0.0.
bool BitEqual(const Value& a, const Value& b) {
  if (a.tag() != b.tag()) return false;
  switch (a.tag()) {
    case TypeTag::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case TypeTag::kPoint:
      return std::bit_cast<uint64_t>(a.AsPoint().x) ==
                 std::bit_cast<uint64_t>(b.AsPoint().x) &&
             std::bit_cast<uint64_t>(a.AsPoint().y) ==
                 std::bit_cast<uint64_t>(b.AsPoint().y);
    case TypeTag::kOrderedList: {
      const ListVec& x = a.AsList();
      const ListVec& y = b.AsList();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!BitEqual(x[i], y[i])) return false;
      }
      return true;
    }
    case TypeTag::kRecord: {
      const FieldVec& x = a.AsRecord();
      const FieldVec& y = b.AsRecord();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first || !BitEqual(x[i].second, y[i].second)) {
          return false;
        }
      }
      return true;
    }
    default:
      return a == b;
  }
}

std::string Encode(const Value& v) {
  std::string bytes;
  EXPECT_TRUE(AppendBinary(v, &bytes).ok());
  return bytes;
}

TEST(BinaryTest, EncodingIsTheDocumentedFormat) {
  using namespace std::string_literals;
  EXPECT_EQ(Encode(Value::Null()), "\x00"s);
  EXPECT_EQ(Encode(Value::Boolean(true)), "\x01\x01"s);
  EXPECT_EQ(Encode(Value::Int64(-2)),
            "\x02\xfe\xff\xff\xff\xff\xff\xff\xff"s);
  EXPECT_EQ(Encode(Value::Double(1.0)),
            "\x03\x00\x00\x00\x00\x00\x00\xf0\x3f"s);
  EXPECT_EQ(Encode(Value::String("hi")), "\x04\x02hi"s);
  EXPECT_EQ(Encode(Value::Datetime(1)),
            "\x06\x01\x00\x00\x00\x00\x00\x00\x00"s);
  EXPECT_EQ(Encode(Value::MakePoint(0.0, -0.0)),
            "\x05"s + std::string(8, '\0') + std::string(7, '\0') + "\x80");
  EXPECT_EQ(Encode(Value::List({Value::Null(), Value::Boolean(false)})),
            "\x07\x02\x00\x01\x00"s);
  EXPECT_EQ(Encode(Value::Record({{"a", Value::Null()}})),
            "\x08\x01\x01\x61\x00"s);
  // A 300-byte string's length is a two-byte varint (0xac 0x02).
  EXPECT_EQ(Encode(Value::String(std::string(300, 'x'))).substr(0, 3),
            "\x04\xac\x02"s);
}

// A random value of any type, nested at most `depth` levels, drawing the
// edge cases (empty containers, NUL and non-ASCII bytes, non-finite and
// signed-zero doubles, int64 extremes) often.
Value RandomValue(common::Rng* rng, int depth) {
  const double special[] = {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN(),
                            0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max()};
  auto random_double = [&] {
    return rng->Chance(0.5) ? special[rng->Uniform(0, 7)]
                            : (rng->NextDouble() - 0.5) * 1e6;
  };
  auto random_string = [&] {
    std::string s;
    const int64_t n = rng->Chance(0.2) ? 0 : rng->Uniform(1, 40);
    for (int64_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(rng->Uniform(0, 255)));  // NUL, 0xff
    }
    return s;
  };
  const int64_t max_tag = depth > 0 ? 8 : 6;
  switch (static_cast<TypeTag>(rng->Uniform(0, max_tag))) {
    case TypeTag::kNull:
      return Value::Null();
    case TypeTag::kBoolean:
      return Value::Boolean(rng->Chance(0.5));
    case TypeTag::kInt64: {
      const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(), 0,
                                  -1};
      return Value::Int64(rng->Chance(0.3)
                              ? extremes[rng->Uniform(0, 3)]
                              : static_cast<int64_t>(rng->engine()()));
    }
    case TypeTag::kDouble:
      return Value::Double(random_double());
    case TypeTag::kString:
      return Value::String(random_string());
    case TypeTag::kPoint:
      return Value::MakePoint(random_double(), random_double());
    case TypeTag::kDatetime:
      return Value::Datetime(static_cast<int64_t>(rng->engine()()));
    case TypeTag::kOrderedList: {
      ListVec items;
      const int64_t n = rng->Chance(0.2) ? 0 : rng->Uniform(1, 5);
      for (int64_t i = 0; i < n; ++i) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::List(std::move(items));
    }
    case TypeTag::kRecord: {
      FieldVec fields;
      const int64_t n = rng->Chance(0.2) ? 0 : rng->Uniform(1, 5);
      for (int64_t i = 0; i < n; ++i) {
        fields.emplace_back(random_string(), RandomValue(rng, depth - 1));
      }
      return Value::Record(std::move(fields));
    }
  }
  return Value::Null();
}

TEST(BinaryTest, SeededRoundTripIsBitExact) {
  common::Rng rng(2015);
  std::set<TypeTag> seen;
  for (int i = 0; i < 2000; ++i) {
    const Value value = RandomValue(&rng, 4);
    seen.insert(value.tag());
    const std::string bytes = Encode(value);
    auto decoded = DecodeBinary(bytes);
    ASSERT_TRUE(decoded.ok()) << i << ": " << decoded.status().ToString();
    ASSERT_TRUE(BitEqual(*decoded, value)) << i << ": "
                                           << value.ToAdmString();
    EXPECT_EQ(Encode(*decoded), bytes) << i;  // re-encodes byte-identical
  }
  EXPECT_EQ(seen.size(), 9u);  // every TypeTag drawn at the top level
}

TEST(BinaryTest, EdgeValuesRoundTrip) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Value cases[] = {
      Value::String(""),
      Value::String(std::string("a\0b\n\xc3\xa9\xff", 7)),
      Value::List({}),
      Value::Record({}),
      Value::Record({{"", Value::Record({})}, {"", Value::List({})}}),
      Value::Double(-0.0),
      Value::Double(nan),
      Value::Double(-nan),
      Value::Double(std::bit_cast<double>(0x7ff0000000000001ULL)),  // sNaN
      Value::MakePoint(inf, -inf),
      Value::List({Value::List({Value::List({Value::Record(
          {{"deep", Value::Double(-0.0)}})})})}),
  };
  for (const Value& value : cases) {
    auto decoded = DecodeBinary(Encode(value));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(BitEqual(*decoded, value)) << value.ToAdmString();
  }
}

TEST(BinaryTest, RejectsMalformedInput) {
  using namespace std::string_literals;
  const std::string bad[] = {
      ""s,                                // no tag
      "\x09"s,                            // unknown tag
      "\x01\x02"s,                        // boolean other than 0/1
      "\x02\x01\x02"s,                    // int64 cut short
      "\x04\x05" "abc"s,                   // string longer than the input
      "\x07\x03\x00\x00"s,                // list of 3 holding 2 items
      "\x08\x01\x01\x61"s,                // field without its value
      "\x00\x00"s,                         // trailing byte
      // A count no input could hold must fail before any allocation.
      "\x07\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"s,
      // An 11-byte varint.
      "\x04\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00"s,
  };
  for (const std::string& bytes : bad) {
    auto decoded = DecodeBinary(bytes);
    EXPECT_FALSE(decoded.ok()) << "accepted " << ::testing::PrintToString(bytes);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption());
    }
  }
}

// The parser, the encoder and the decoder share one nesting limit: what
// one layer accepts the next can read, and deeper values are refused at
// every layer with an error rather than stored.
TEST(BinaryTest, NestingBeyondTheLimitIsRejectedByEveryLayer) {
  using namespace std::string_literals;
  auto nested = [](int depth) {
    Value v = Value::Null();
    for (int i = 0; i < depth; ++i) {
      v = i % 2 == 0 ? Value::List({v}) : Value::Record({{"f", v}});
    }
    return v;
  };
  const Value deepest = nested(kMaxNestingDepth);
  auto decoded = DecodeBinary(Encode(deepest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, deepest);
  auto parsed = ParseAdm(deepest.ToAdmString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, deepest);

  const Value too_deep = nested(kMaxNestingDepth + 1);
  std::string out = "kept";
  const common::Status refused = AppendBinary(too_deep, &out);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_EQ(out, "kept");  // nothing appended
  auto unparsed = ParseAdm(too_deep.ToAdmString());
  EXPECT_TRUE(unparsed.status().IsCorruption()) << unparsed.status().ToString();
  // Bytes of one list more than the limit, built by hand since the encoder
  // refuses them.
  std::string bytes;
  for (int i = 0; i <= kMaxNestingDepth; ++i) bytes += "\x07\x01"s;
  bytes += "\x00"s;
  EXPECT_TRUE(DecodeBinary(bytes).status().IsCorruption());
  EXPECT_TRUE(DecodeBinary(bytes.substr(2)).ok());
}

// Decoding damaged bytes must fail or yield some value, never read past
// the input: every strict prefix of an encoded tweet, and 1000 seeded
// single-byte flips of it (run under ASan by the asan-ubsan preset).
TEST(BinaryTest, DamagedTweetNeverReadsOutOfBounds) {
  gen::TweetFactory factory(1);
  const std::string bytes = Encode(factory.NextTweet());
  for (size_t n = 0; n < bytes.size(); ++n) {
    // An exact-size heap copy, so ASan sees any read past its end.
    const std::string prefix = bytes.substr(0, n);
    EXPECT_FALSE(DecodeBinary(prefix).ok()) << "prefix of " << n;
  }
  common::Rng rng(22);
  int decoded = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string flipped = bytes;
    const size_t at = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
    flipped[at] = static_cast<char>(flipped[at] ^ rng.Uniform(1, 255));
    if (DecodeBinary(flipped).ok()) ++decoded;
  }
  // Flips inside string bytes and fixed fields still decode; flips of
  // tags, counts and lengths mostly do not.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 1000);
}

}  // namespace
}  // namespace adm
}  // namespace asterix
