// Process-wide heap allocation tallies for bench_json, counted by the
// replacement global operator new in alloc_hook.cc. Only binaries that
// link alloc_hook.cc carry the hook.

#ifndef UNICLEAN_BENCH_ALLOC_HOOK_H_
#define UNICLEAN_BENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace uniclean {
namespace bench {

struct AllocTally {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Every thread's allocations so far, summed. Allocations of a thread that
/// has exited stay counted.
AllocTally ProcessAllocs();

}  // namespace bench
}  // namespace uniclean

#endif  // UNICLEAN_BENCH_ALLOC_HOOK_H_
