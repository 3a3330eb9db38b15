// Error-handling primitives shared by every eSPICE module.
//
// Policy (follows the C++ Core Guidelines, E.*):
//  * Programming errors (broken invariants, out-of-contract arguments on
//    internal interfaces) abort via ESPICE_ASSERT -- they are bugs, not
//    recoverable conditions.
//  * User-facing configuration errors throw espice::ConfigError so that
//    examples / benches can print a friendly message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace espice {

/// Thrown when a user-supplied configuration value is invalid
/// (e.g. a latency bound of zero or a window size of zero).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Machine-readable category of a recoverable runtime error.  Callers that
/// need to branch on *what* went wrong (the CSV loader's bad-row policy,
/// the durability layer's recovery path) switch on the code instead of
/// parsing the message.
enum class ErrorCode {
  kGeneric,
  kBadRow,           ///< malformed CSV row (missing/garbage/extra fields)
  kStreamOrder,      ///< seq/ts ordering contract violated
  kIo,               ///< file open/read/write/fsync/rename failure
  kCorruptLog,       ///< event-log record/segment failed validation
  kCorruptSnapshot,  ///< snapshot payload/manifest failed validation
  kShardFailed,      ///< a shard pipeline thread died with an exception
  kEngineFailed,     ///< operation on an engine already in the failed state
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "generic";
    case ErrorCode::kBadRow: return "bad_row";
    case ErrorCode::kStreamOrder: return "stream_order";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kCorruptLog: return "corrupt_log";
    case ErrorCode::kCorruptSnapshot: return "corrupt_snapshot";
    case ErrorCode::kShardFailed: return "shard_failed";
    case ErrorCode::kEngineFailed: return "engine_failed";
  }
  return "unknown";
}

/// Typed recoverable error.  Derives from ConfigError so existing callers
/// (and tests) that catch ConfigError keep working; new callers catch
/// espice::Error and dispatch on code().
class Error : public ConfigError {
 public:
  Error(ErrorCode code, const std::string& what)
      : ConfigError(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "espice: assertion `%s` failed at %s:%d: %s\n", expr,
               file, line, msg);
  std::abort();
}
}  // namespace detail

}  // namespace espice

/// Internal invariant check.  The zero-copy window engine asserts on the
/// per-membership hot path (keep(), store slot resolution), so release
/// builds compile the checks out; debug builds keep them.  Conditions must
/// therefore be side-effect free.
#ifdef NDEBUG
// sizeof keeps the condition type-checked and its operands "used" without
// evaluating anything at run time.
#define ESPICE_ASSERT(expr, msg) ((void)sizeof(!(expr)))
#else
#define ESPICE_ASSERT(expr, msg)                                       \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::espice::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                  \
  } while (false)
#endif

/// Validate a user-supplied configuration value; throws ConfigError.
#define ESPICE_REQUIRE(expr, msg)              \
  do {                                         \
    if (!(expr)) {                             \
      throw ::espice::ConfigError((msg));      \
    }                                          \
  } while (false)

/// Validate a recoverable runtime condition; throws espice::Error with the
/// given ErrorCode so callers can dispatch on the failure category.
#define ESPICE_CHECK(expr, code, msg)          \
  do {                                         \
    if (!(expr)) {                             \
      throw ::espice::Error((code), (msg));    \
    }                                          \
  } while (false)
