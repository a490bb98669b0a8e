// UC_CHECK: fatal invariant assertions for programming errors. Kept enabled in
// release builds — cleaning algorithms rely on nontrivial invariants (queue /
// counter bookkeeping, equivalence-class lattice) and a loud failure beats
// silent data corruption in a cleaning system.

#ifndef UNICLEAN_COMMON_CHECK_H_
#define UNICLEAN_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace uniclean {
namespace internal {

/// Accumulates a failure message and aborts on destruction.
class CheckFailureStream {
 public:
  CheckFailureStream(const char* condition, const char* file, int line) {
    stream_ << "UC_CHECK failed: " << condition << " at " << file << ":"
            << line << " ";
  }

  [[noreturn]] ~CheckFailureStream() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  CheckFailureStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace uniclean

#define UC_CHECK(cond)                                                  \
  if (cond) {                                                           \
  } else /* NOLINT */                                                   \
    ::uniclean::internal::CheckFailureStream(#cond, __FILE__, __LINE__)

#define UC_CHECK_EQ(a, b) UC_CHECK((a) == (b))
#define UC_CHECK_NE(a, b) UC_CHECK((a) != (b))
#define UC_CHECK_LT(a, b) UC_CHECK((a) < (b))
#define UC_CHECK_LE(a, b) UC_CHECK((a) <= (b))
#define UC_CHECK_GT(a, b) UC_CHECK((a) > (b))
#define UC_CHECK_GE(a, b) UC_CHECK((a) >= (b))

#endif  // UNICLEAN_COMMON_CHECK_H_
