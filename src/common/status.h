// Status: error propagation without exceptions, following the idiom used by
// RocksDB / LevelDB / Arrow. Expected failures (bad rule syntax, inconsistent
// rule sets, malformed CSV) travel as Status values; programming errors are
// guarded by UC_CHECK (see check.h).

#ifndef UNICLEAN_COMMON_STATUS_H_
#define UNICLEAN_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace uniclean {

/// Machine-readable category of a Status. The numeric values are the wire
/// error codes (serve/wire.h), so new codes go after kDataLoss, and
/// serve::StatusFromWire's upper bound moves with them.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kDeadlineExceeded,
  kCancelled,
  kUnavailable,
  kDataLoss,
};

/// Returns a short human-readable name, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// Result of an operation that can fail. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// A status of `code`, for callers that carry the code as data (the wire
  /// error byte, ByteReader's short-read code). The named factories below
  /// are the usual spelling.
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A bounded resource (id space, frame budget, session slots) ran out.
  /// Unlike kOutOfRange — a value outside its domain — this is load-induced
  /// and retryable after the pressure clears; servers surface it to clients
  /// instead of aborting (see serve/wire.h).
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// The caller-supplied deadline passed before the work finished. The
  /// operation unwound cleanly between committed fixes (see
  /// common/cancellation.h); retrying with a larger deadline is safe.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// The caller explicitly abandoned the operation via a CancelToken.
  /// Like kDeadlineExceeded the unwind is clean; unlike it, retrying is
  /// pointless unless whoever cancelled changes their mind.
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  /// The service refused the request up front (full queue, admission cap)
  /// without doing any work. Always safe to retry after backing off; the
  /// wire error may carry a retry-after hint (see serve/wire.h).
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Stored bytes failed validation: a snapshot with a bad magic/CRC, a
  /// truncated section, a declared length past the file end. Unlike
  /// kCorruption — malformed *input* the caller handed us — this marks data
  /// *we* persisted and can no longer trust; the recovery is to discard the
  /// artifact and rebuild from the primary sources (see src/snapshot/).
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK Status to the caller.
#define UC_RETURN_IF_ERROR(expr)                    \
  do {                                              \
    ::uniclean::Status _uc_status = (expr);         \
    if (!_uc_status.ok()) return _uc_status;        \
  } while (0)

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_STATUS_H_
