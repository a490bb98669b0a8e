// Allocation counting hook for bench_json: a replacement global operator
// new that bumps a per-thread counter slot. Each slot is owned by one
// thread and padded to its own cache line, so counting adds no shared
// write to the concurrent points it measures. ProcessAllocs() sums the
// slots with relaxed loads.
//
// The replacement operators live in their own translation unit: defined
// next to code that allocates, g++ sees the malloc inside operator new and
// the free inside operator delete and reports -Wmismatched-new-delete.

#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace uniclean {
namespace bench {
namespace {

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};

constexpr int kSlots = 256;
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
// Trivially initialized, so reading it inside operator new cannot recurse.
thread_local int tl_slot = -1;

void Count(std::size_t size) {
  if (tl_slot < 0) {
    tl_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
  }
  if (tl_slot < kSlots - 1) {
    Slot& slot = g_slots[tl_slot];
    slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    slot.bytes.store(slot.bytes.load(std::memory_order_relaxed) + size,
                     std::memory_order_relaxed);
    return;
  }
  // Threads past the table share its last slot, updated with fetch_add so
  // the tally stays exact, only contended.
  Slot& shared = g_slots[kSlots - 1];
  shared.count.fetch_add(1, std::memory_order_relaxed);
  shared.bytes.fetch_add(size, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocTally ProcessAllocs() {
  AllocTally total;
  for (const Slot& slot : g_slots) {
    total.count += slot.count.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace bench
}  // namespace uniclean

// Every unaligned form is replaced, nothrow included, so no allocation of
// this binary pairs another library's operator new with this free().
void* operator new(std::size_t size) {
  return uniclean::bench::Allocate(size);
}
void* operator new[](std::size_t size) {
  return uniclean::bench::Allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return uniclean::bench::Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
