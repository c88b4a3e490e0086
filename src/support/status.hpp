#pragma once
// Typed Status / Result<T> error handling (header-only).
//
// The library reports recoverable errors (bad input files, infeasible
// configurations, malformed graphs, shed jobs) through Result<T> instead of
// exceptions, per the project convention; exceptions remain for programming
// errors. Every error carries a StatusCode so callers can branch on *why*
// something failed — a CLI retries an kUnavailable file but not a
// kInvalidArgument spec; a service client backs off on kResourceExhausted
// but fails fast on kInternal.
//
// Every error names a code: `Status::error(StatusCode::k..., msg)`. There is
// no code-less overload, so the compiler rejects an untyped error.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace ppnpart::support {

/// Why an operation failed. Modeled on the canonical RPC code set, trimmed
/// to what this library can actually signal:
///   kInvalidArgument   caller handed something malformed (bad spec, bad
///                      file contents, mismatched sizes)
///   kDeadlineExceeded  a wall-clock budget expired before the work could
///                      run (deadline-aware admission shed)
///   kCancelled         a caller stop token fired
///   kResourceExhausted the engine refused load (bounded admission queue
///                      full; the typed rejection of overload protection)
///   kUnavailable       a dependency is missing or unreachable (file cannot
///                      be opened/written); retrying may succeed
///   kInternal          an invariant broke, or no attempt produced an
///                      answer (every portfolio member failed)
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
  kUnavailable,
  kInternal,
};

/// Stable uppercase label ("OK", "INVALID_ARGUMENT", ...), suitable for
/// logs and CLI output.
inline const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "?";
}

class Status {
 public:
  Status() = default;  // OK
  static Status ok() { return Status(); }

  static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code == StatusCode::kOk ? StatusCode::kInternal : code;
    s.message_ = std::move(message);
    return s;
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return is_ok(); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK", or "CODE: message" ("RESOURCE_EXHAUSTED: admission queue full").
  std::string to_string() const {
    if (is_ok()) return "OK";
    std::string out = support::to_string(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  static Result error(StatusCode code, std::string message) {
    return Result(Status::error(code, std::move(message)));
  }

  bool is_ok() const { return status_.is_ok(); }
  explicit operator bool() const { return is_ok(); }
  const Status& status() const { return status_; }
  StatusCode code() const { return status_.code(); }
  const std::string& message() const { return status_.message(); }

  /// Precondition: is_ok().
  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

  /// Lvalue overload: COPIES the held value (the Result keeps it).
  T value_or(T fallback) const& {
    return is_ok() ? *value_ : std::move(fallback);
  }
  /// Rvalue overload: MOVES the held value out — `std::move(r).value_or(d)`
  /// never pays a copy of T.
  T value_or(T fallback) && {
    return is_ok() ? std::move(*value_) : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace ppnpart::support
