// Lightweight status / result types used across the Communix codebase.
//
// We deliberately avoid exceptions on hot paths (lock acquisition,
// signature matching) and in the network protocol, where failures are
// ordinary control flow. `Status` carries an error code plus a
// human-readable message; `Result<T>` is a Status-or-value.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace communix {

/// Error categories used across modules. Keep coarse: callers branch on
/// these, logs carry the detail string.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,   // failed validation (bad id, adjacency, rate limit)
  kResourceExhausted,  // rate limits, queue full
  kFailedPrecondition,
  kUnavailable,  // transport failures
  kDataLoss,     // corrupt frames / files
  kDeadlock,     // deadlock detected; victim acquisition aborted
  kInternal,
};

/// Human-readable name for an ErrorCode (stable, for logs and tests).
constexpr const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kAlreadyExists: return "ALREADY_EXISTS";
    case ErrorCode::kPermissionDenied: return "PERMISSION_DENIED";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kDataLoss: return "DATA_LOSS";
    case ErrorCode::kDeadlock: return "DEADLOCK";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A success-or-error outcome. Cheap to copy on success (empty message).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Error(ErrorCode code, std::string message) {
    assert(code != ErrorCode::kOk);
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE: message", for logs and gtest failure output.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(ErrorCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Status-or-value. `value()` asserts on success; check `ok()` first.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "use the value constructor for success");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  ErrorCode code() const { return status_.code(); }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T&& take() {
    assert(ok());
    return std::move(*value_);
  }
  /// Value if present, otherwise `fallback`.
  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace communix
