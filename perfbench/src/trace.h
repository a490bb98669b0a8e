// Span recording for the traced benchmark binary.
//
// A span is one call into a layer's public function, recorded by the
// benchmark around that call: name ("<layer>.<what>"), start, end, parent
// span and request id, plus the allocations the calling thread made while
// it was open. Spans live in per-thread buffers and are only read after
// every recording thread has been joined (CollectSpans, WriteSpans), so
// recording takes no lock. In the untraced binary (PERFBENCH_TRACED unset)
// every call here is an empty inline function and the program carries no
// allocation hook.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/// Heap allocations counted by the traced binary's operator new hook.
struct AllocTally {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

struct SpanRecord {
  std::string name;
  double start = 0.0;  // steady-clock seconds
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = top-level
  uint64_t request = 0;
  AllocTally allocs;  // made on the span's own thread while it was open
};

#ifdef PERFBENCH_TRACED
/// This thread's allocation tally so far (alloc_hook.cc).
AllocTally ThreadAllocs();
/// Every thread's tally summed (alloc_hook.cc).
AllocTally ProcessAllocs();

/// Opens a span on this thread, nested under the thread's innermost open
/// span. Returns its id.
int64_t BeginSpan(const char* name, uint64_t request = 0);
/// Closes the innermost open span of this thread.
void EndSpan();
/// Every span recorded so far, by id. Call only when no thread records.
std::vector<SpanRecord> CollectSpans();
/// Writes CollectSpans() to `path`, one JSON object per line; false on an
/// I/O failure.
bool WriteSpans(const std::string& path);
#else
inline AllocTally ProcessAllocs() { return {}; }
inline int64_t BeginSpan(const char*, uint64_t = 0) { return 0; }
inline void EndSpan() {}
inline std::vector<SpanRecord> CollectSpans() { return {}; }
inline bool WriteSpans(const std::string&) { return true; }
#endif

/// Scoped span: BeginSpan in the constructor, EndSpan in the destructor.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0) {
    BeginSpan(name, request);
  }
  ~Span() { EndSpan(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
