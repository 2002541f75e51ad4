// Parser for ADM text: JSON plus the constructor forms point(x, y) and
// datetime(epoch_ms). This is the translation step every feed adaptor
// performs on raw external data before records enter the pipeline.
#pragma once

#include <string_view>

#include "adm/value.h"
#include "common/result.h"

namespace asterix {
namespace adm {

/// Parses a single ADM value from `text`. The whole input must be consumed
/// (trailing whitespace allowed). Malformed input, and records or lists
/// nested deeper than kMaxNestingDepth, yield a Corruption
/// status whose message pinpoints the offset — this is the error surfaced
/// as a *soft failure* during ingestion.
///
/// One pass over the input: every record's FieldVec and every list's
/// ListVec is allocated at its exact size (fields are gathered on a
/// per-thread scratch stack first), and a string without escapes is
/// copied once. Numbers saturate on overflow as strtoll/strtod do. The
/// tokens `inf`, `-inf`, `nan` and `-nan` that Value::ToAdmString writes
/// for non-finite doubles are accepted, so
/// `ParseAdm(v.ToAdmString())->ToAdmString() == v.ToAdmString()` for
/// every value.
[[nodiscard]] common::Result<Value> ParseAdm(std::string_view text);

}  // namespace adm
}  // namespace asterix

