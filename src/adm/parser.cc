#include "adm/parser.h"

#include <charconv>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>

namespace asterix {
namespace adm {

namespace {

using common::Result;
using common::Status;

// The six characters std::isspace accepts in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Per-thread scratch stacks. A record's fields (a list's items) are
// parsed onto the top of its stack and moved into a vector of exactly
// their count at the closing bracket; a nested value pushes above its
// parent's entries and pops them before the parent continues. The stacks
// keep their capacity across calls, so the only steady-state allocations
// are the parsed values themselves.
struct Scratch {
  FieldVec fields;
  ListVec items;
};

class Parser {
 public:
  Parser(std::string_view text, Scratch* scratch)
      : begin_(text.data()),
        p_(text.data()),
        end_(text.data() + text.size()),
        scratch_(scratch) {}

  Result<Value> Parse() {
    Value value;
    SkipWs();
    bool ok = ParseValue(&value);
    if (ok) {
      SkipWs();
      if (p_ != end_) ok = Fail("trailing characters after value");
    }
    if (!ok) {
      // The stacks are empty between calls, but an error leaves the
      // entries of every open record and list on them.
      scratch_->fields.clear();
      scratch_->items.clear();
      return std::move(error_);
    }
    return value;
  }

 private:
  // Records the error at the current offset; always returns false so
  // callers can `return Fail(...)`.
  bool Fail(const std::string& what) {
    error_ = Status::Corruption("ADM parse error at offset " +
                                std::to_string(p_ - begin_) + ": " + what);
    return false;
  }

  void SkipWs() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
  }

  bool Eof() const { return p_ == end_; }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (static_cast<size_t>(end_ - p_) >= word.size() &&
        std::string_view(p_, word.size()) == word) {
      p_ += word.size();
      return true;
    }
    return false;
  }

  bool ParseValue(Value* out) {
    if (Eof()) return Fail("unexpected end of input");
    const char c = *p_;
    switch (c) {
      case '{':
        return ParseRecord(out);
      case '[':
        return ParseList(out);
      case '"': {
        std::string s;
        if (!ParseRawString(&s)) return false;
        *out = Value::String(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeWord("true")) return Fail("expected 'true'");
        *out = Value::Boolean(true);
        return true;
      case 'f':
        if (!ConsumeWord("false")) return Fail("expected 'false'");
        *out = Value::Boolean(false);
        return true;
      case 'n':
        if (ConsumeWord("null")) {
          *out = Value::Null();
          return true;
        }
        if (ConsumeWord("nan")) {
          *out = Value::Double(std::numeric_limits<double>::quiet_NaN());
          return true;
        }
        return Fail("expected 'null'");
      case 'i':
        if (!ConsumeWord("inf")) return Fail("unexpected character 'i'");
        *out = Value::Double(std::numeric_limits<double>::infinity());
        return true;
      case 'p':
        return ParsePoint(out);
      case 'd':
        return ParseDatetime(out);
      default:
        if (c == '-' || IsDigit(c)) return ParseNumber(out);
        return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  static Value* SlotValue(FieldVec* stack, size_t slot) {
    return &(*stack)[slot].second;
  }
  static Value* SlotValue(ListVec* stack, size_t slot) {
    return &(*stack)[slot];
  }

  // Parses the next value into the top entry of `stack`. A scalar pushes
  // nothing onto the stacks, so it is parsed in place; a record or list
  // may grow (and so move) the stack, so it is parsed aside and moved in.
  template <typename Stack>
  bool ParseIntoTop(Stack* stack) {
    const size_t slot = stack->size() - 1;
    if (Eof() || (*p_ != '{' && *p_ != '[')) {
      return ParseValue(SlotValue(stack, slot));
    }
    Value nested;
    if (!ParseValue(&nested)) return false;
    *SlotValue(stack, slot) = std::move(nested);
    return true;
  }

  // Moves the entries above `base` off the stack into a vector of exactly
  // their count.
  template <typename Stack>
  static Stack PopAbove(Stack* stack, size_t base) {
    const auto first = stack->begin() + static_cast<std::ptrdiff_t>(base);
    Stack top(std::make_move_iterator(first),
              std::make_move_iterator(stack->end()));
    stack->resize(base);
    return top;
  }

  // A record or list opens one more level of nesting. Deeper than
  // kMaxNestingDepth is a parse error: the store could not encode it.
  bool Enter() {
    if (depth_ >= kMaxNestingDepth) {
      return Fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
    }
    ++depth_;
    return true;
  }

  bool ParseRecord(Value* out) {
    if (!Enter()) return false;
    ++p_;  // '{'
    FieldVec& stack = scratch_->fields;
    const size_t base = stack.size();
    SkipWs();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        if (Eof() || *p_ != '"') return Fail("expected field name");
        stack.emplace_back();
        if (!ParseRawString(&stack.back().first)) return false;
        SkipWs();
        if (!Consume(':')) return Fail("expected ':' after field name");
        SkipWs();
        if (!ParseIntoTop(&stack)) return false;
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return Fail("expected ',' or '}' in record");
      }
    }
    *out = Value::Record(PopAbove(&stack, base));
    --depth_;
    return true;
  }

  bool ParseList(Value* out) {
    if (!Enter()) return false;
    ++p_;  // '['
    ListVec& stack = scratch_->items;
    const size_t base = stack.size();
    SkipWs();
    if (!Consume(']')) {
      while (true) {
        SkipWs();
        stack.emplace_back();
        if (!ParseIntoTop(&stack)) return false;
        SkipWs();
        if (Consume(']')) break;
        if (!Consume(',')) return Fail("expected ',' or ']' in list");
      }
    }
    *out = Value::List(PopAbove(&stack, base));
    --depth_;
    return true;
  }

  // Appends each run between escapes in one call, so a string without
  // escapes is copied once, at its exact size.
  bool ParseRawString(std::string* out) {
    ++p_;  // '"'
    const char* run = p_;
    while (true) {
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      if (p_ == end_) return Fail("unterminated string");
      out->append(run, p_);
      if (*p_++ == '"') return true;
      if (p_ == end_) return Fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        default:
          return Fail(std::string("bad escape '\\") + e + "'");
      }
      run = p_;
    }
  }

  bool ParseNumber(Value* out) {
    const char* start = p_;
    const bool negative = Consume('-');
    // The serializer's spellings of non-finite doubles.
    if (ConsumeWord("inf")) {
      const double inf = std::numeric_limits<double>::infinity();
      *out = Value::Double(negative ? -inf : inf);
      return true;
    }
    if (ConsumeWord("nan")) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      *out = Value::Double(negative ? -nan : nan);
      return true;
    }
    bool is_double = false;
    while (p_ != end_) {
      const char c = *p_;
      if (IsDigit(c)) {
        ++p_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++p_;
      } else if (c == '+' || c == '-') {
        // Only valid inside an exponent; the conversion below catches
        // misuse.
        if (p_[-1] != 'e' && p_[-1] != 'E') break;
        ++p_;
      } else {
        break;
      }
    }
    const char* token_end = p_;
    if (token_end == start || (token_end - start == 1 && *start == '-')) {
      return Fail("malformed number");
    }
    // from_chars reads the token in place. When it does not take the
    // whole token, or the value is out of range, strtod/strtoll decide:
    // out-of-range values saturate (or flush to zero) rather than fail,
    // and a malformed token is named in the error.
    if (is_double) {
      double d = 0;
      const auto r = std::from_chars(start, token_end, d);
      if (r.ec != std::errc() || r.ptr != token_end) {
        const std::string token(start, token_end);
        char* end = nullptr;
        d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
          return Fail("malformed double '" + token + "'");
        }
      }
      *out = Value::Double(d);
      return true;
    }
    int64_t i = 0;
    const auto r = std::from_chars(start, token_end, i);
    if (r.ec != std::errc() || r.ptr != token_end) {
      const std::string token(start, token_end);
      char* end = nullptr;
      i = static_cast<int64_t>(std::strtoll(token.c_str(), &end, 10));
      if (end != token.c_str() + token.size()) {
        return Fail("malformed integer '" + token + "'");
      }
    }
    *out = Value::Int64(i);
    return true;
  }

  bool ParsePoint(Value* out) {
    if (!ConsumeWord("point")) return Fail("expected 'point'");
    SkipWs();
    if (!Consume('(')) return Fail("expected '(' after point");
    SkipWs();
    Value x;
    if (!ParseNumber(&x)) return false;
    SkipWs();
    if (!Consume(',')) return Fail("expected ',' in point");
    SkipWs();
    Value y;
    if (!ParseNumber(&y)) return false;
    SkipWs();
    if (!Consume(')')) return Fail("expected ')' after point");
    *out = Value::MakePoint(x.AsNumber(), y.AsNumber());
    return true;
  }

  bool ParseDatetime(Value* out) {
    if (!ConsumeWord("datetime")) return Fail("expected 'datetime'");
    SkipWs();
    if (!Consume('(')) return Fail("expected '(' after datetime");
    SkipWs();
    Value ms;
    if (!ParseNumber(&ms)) return false;
    SkipWs();
    if (!Consume(')')) return Fail("expected ')' after datetime");
    if (ms.tag() != TypeTag::kInt64) {
      return Fail("datetime requires an integer epoch-ms argument");
    }
    *out = Value::Datetime(ms.AsInt64());
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  Scratch* const scratch_;
  int depth_ = 0;  // records and lists open around the cursor
  Status error_;
};

}  // namespace

common::Result<Value> ParseAdm(std::string_view text) {
  thread_local Scratch scratch;
  return Parser(text, &scratch).Parse();
}

}  // namespace adm
}  // namespace asterix
