// Allocation tallies for the traced binary only: a replacement global
// operator new that bumps a per-thread counter slot. Each slot is owned by
// one thread and padded to its own cache line, so counting adds no shared
// write (the shared-atomic counter this replaces capped thread scaling on
// its own). Readers sum the slots with relaxed loads at span boundaries.

#include <atomic>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace perfbench {
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

Slot& OwnSlot() {
  if (tl_slot < 0) {
    tl_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
  }
  // Threads past the table share its last slot; it is updated with
  // fetch_add below, so the tally stays exact, only contended.
  return g_slots[tl_slot < kSlots ? tl_slot : kSlots - 1];
}

void Count(std::size_t size) {
  Slot& slot = OwnSlot();
  if (tl_slot < kSlots - 1) {
    slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    slot.bytes.store(slot.bytes.load(std::memory_order_relaxed) + size,
                     std::memory_order_relaxed);
  } else {
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocTally ThreadAllocs() {
  const Slot& slot = OwnSlot();
  return {slot.count.load(std::memory_order_relaxed),
          slot.bytes.load(std::memory_order_relaxed)};
}

AllocTally ProcessAllocs() {
  AllocTally total;
  const int used = g_next_slot.load(std::memory_order_relaxed);
  for (int i = 0; i < kSlots && i < used; ++i) {
    total.count += g_slots[i].count.load(std::memory_order_relaxed);
    total.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

// Every unaligned form is replaced, nothrow included, so no allocation of
// this binary pairs another library's operator new with this free().
void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
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
