// Status: lightweight error propagation for the core library (RocksDB idiom).
// Exceptions are reserved for user-provided code (UDFs, adaptors) and are
// caught at the MetaFeed sandbox boundary.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace asterix {
namespace common {

/// Result status of a fallible operation. Cheap to copy when OK.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kCorruption,
    kIOError,
    kResourceExhausted,
    kFailedPrecondition,
    kAborted,
    kUnavailable,
    kInternal,
    kTimedOut,
    kNotSupported,
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(Code::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(Code::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(Code::kAlreadyExists, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(Code::kCorruption, std::move(m));
  }
  static Status IOError(std::string m) {
    return Status(Code::kIOError, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(Code::kResourceExhausted, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(Code::kFailedPrecondition, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(Code::kAborted, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(Code::kUnavailable, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(Code::kInternal, std::move(m));
  }
  static Status TimedOut(std::string m) {
    return Status(Code::kTimedOut, std::move(m));
  }
  static Status NotSupported(std::string m) {
    return Status(Code::kNotSupported, std::move(m));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" form for logs and test output.
  std::string ToString() const;

 private:
  Code code_;
  std::string message_;
};

}  // namespace common
}  // namespace asterix

/// Propagates a non-OK status to the caller.
#define RETURN_IF_ERROR(expr)                          \
  do {                                                 \
    ::asterix::common::Status _st = (expr);            \
    if (!_st.ok()) return _st;                         \
  } while (0)

/// Aborts on a non-OK status. For benchmarks and tool mains where an error
/// is unrecoverable and the fix is in the harness, not the caller.
#define CHECK_OK(expr)                                             \
  do {                                                             \
    ::asterix::common::Status _st = (expr);                        \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "CHECK_OK failed at %s:%d: %s\n",       \
                   __FILE__, __LINE__, _st.ToString().c_str());    \
      std::abort();                                                \
    }                                                              \
  } while (0)

