// StringPool: the dictionary encoding behind data::Value. Every distinct
// cell string is interned exactly once and identified by a dense 32-bit id,
// so value equality and hashing across the cleaning engines are integer
// operations and tuples are flat arrays of ids instead of vectors of
// heap-allocated strings (the move HoloClean makes when compiling values
// into integer domains before inference). Strings are resolved back only
// where an actual similarity computation needs the characters.
//
// Ids are never recycled: the pool only grows over a process lifetime, and
// interned ids stay valid (and keep resolving to the same characters) for as
// long as the pool that produced them is installed.
//
// Thread safety: the pool is safe for concurrent use. Resolving an id back
// to its characters (str/view/size) is lock-free — storage is a two-level
// chunk table whose chunks are published with release/acquire ordering and
// never move — while Intern() serializes writers behind a mutex. This is
// what lets concurrent uniclean::Session runs share one pool: cleaning is
// read-mostly (repairs copy already-interned master ids), and the rare
// intern (e.g. a phase constructing a fresh Value) is correct, just
// not contention-free. Installing a different global pool (ScopedStringPool)
// is NOT thread-safe and must happen while no other thread touches values.

#ifndef UNICLEAN_DATA_STRING_POOL_H_
#define UNICLEAN_DATA_STRING_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/check.h"
#include "common/result.h"

namespace uniclean {
namespace data {

/// Id of an interned string; kNullValueId marks SQL null.
using ValueId = uint32_t;

/// splitmix64 finalizer: the shared integer mixer behind ValueHash and
/// GroupKeyHash.
inline uint64_t MixU64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Occupancy snapshot of a StringPool (see StringPool::Stats) — the
/// observable baseline for the ROADMAP id-recycling work: long-lived delta
/// sessions keep interning fresh values, and ids are never recycled, so
/// `remaining` is the budget a serving deployment burns down.
struct StringPoolStats {
  /// Distinct strings interned so far (== the next id to be minted).
  size_t interned = 0;
  /// Total id capacity of the pool (2^28; kNullId is outside it).
  size_t capacity = 0;
  /// Ids left before Intern aborts / TryIntern fails: capacity - interned.
  size_t remaining = 0;
  /// Characters resident across all interned strings (payload only; chunk
  /// table and hash-index overhead not included).
  uint64_t string_bytes = 0;
  /// Storage chunks in use (each holds kChunkSize string slots).
  size_t chunks = 0;
};

/// Content tag of a pool prefix: `count` interned strings whose *order-
/// sensitive* content hash is `hash`. Two pools with equal generations
/// resolve every id below `count` to identical characters — the contract
/// snapshot files (src/snapshot/) rely on to keep interned ids stable
/// across a process restart. Unlike CleanEngine::Fingerprint(), which is
/// deliberately interning-order independent, the generation hash *must*
/// depend on order: id stability is exactly what it certifies.
struct StringPoolGeneration {
  uint64_t count = 0;
  uint64_t hash = 0;

  bool operator==(const StringPoolGeneration& o) const {
    return count == o.count && hash == o.hash;
  }
};

class StringPool {
 public:
  /// Sentinel id for SQL null (never a valid interned id).
  static constexpr ValueId kNullId = 0xFFFFFFFFu;
  /// The empty string is pre-interned at id 0 so default-constructed Values
  /// need no lookup.
  static constexpr ValueId kEmptyId = 0;

  StringPool()
      : chunks_(new std::atomic<std::string*>[kMaxChunks]) {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
    Intern(std::string_view());
  }

  ~StringPool() {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
    }
  }

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id of `s`, interning it on first sight. Thread-safe;
  /// concurrent callers serialize on an internal mutex. Fails with
  /// Status::OutOfRange — instead of minting an aliased id — when the 2^28
  /// id space is exhausted; a caller that cannot recover should use Intern,
  /// which aborts. Watch Stats().remaining to see exhaustion coming.
  Result<ValueId> TryIntern(std::string_view s) {
    std::lock_guard<std::mutex> lock(mutex_);
    return InternLocked(s);
  }

  /// Interns `strings[0..n)` in order, writing each id to `ids[0..n)` —
  /// semantically identical to n back-to-back TryIntern calls, but under
  /// one lock acquisition with the index grown up front, so no other
  /// thread's interning can interleave with the batch. The bulk path for
  /// snapshot loading, where tens of thousands of strings arrive at once.
  Status TryInternBatch(const std::string_view* strings, size_t n,
                        ValueId* ids) {
    std::lock_guard<std::mutex> lock(mutex_);
    index_.reserve(index_.size() + n);
    for (size_t i = 0; i < n; ++i) {
      UC_ASSIGN_OR_RETURN(ids[i], InternLocked(strings[i]));
    }
    return Status::OK();
  }

  /// Like TryIntern but aborts on id-space exhaustion — the convenient form
  /// for the hot paths, where exhaustion is unrecoverable anyway.
  ValueId Intern(std::string_view s) {
    Result<ValueId> id = TryIntern(s);
    UC_CHECK(id.ok()) << id.status().ToString();
    return id.value();
  }

  /// The interned string for a valid id; kNullId resolves to "". Lock-free.
  /// Aborts on out-of-range ids (e.g. an id issued by a larger pool); an
  /// in-range id issued by a *different* pool is indistinguishable from a
  /// valid one and resolves to this pool's string — never mix ids across
  /// pools (see ScopedStringPool).
  const std::string& str(ValueId id) const {
    if (id == kNullId) return empty_;
    UC_CHECK_LT(id, size_.load(std::memory_order_acquire))
        << "StringPool: unknown value id";
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

  std::string_view view(ValueId id) const { return str(id); }

  /// Number of distinct interned strings.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Occupancy counters (MemoStats-style): interned count, id capacity,
  /// remaining ids, resident character bytes. Live atomics — safe to call
  /// while other threads intern; the snapshot is approximate under
  /// concurrent writers.
  StringPoolStats Stats() const {
    StringPoolStats stats;
    stats.interned = size();
    stats.capacity = static_cast<size_t>(kCapacity);
    stats.remaining = stats.capacity - stats.interned;
    stats.string_bytes = string_bytes_.load(std::memory_order_relaxed);
    stats.chunks = (stats.interned + kChunkSize - 1) >> kChunkBits;
    return stats;
  }

  /// Order-sensitive content hash of ids [0, n): each string's length and
  /// characters folded through MixU64 in id order. Lock-free (reads through
  /// str()); requires n <= size(). O(total characters of the prefix).
  uint64_t PrefixHash(size_t n) const {
    UC_CHECK_LE(n, size()) << "StringPool::PrefixHash: prefix beyond pool";
    uint64_t h = 0x243f6a8885a308d3ULL;  // distinct seed from Fingerprint()
    for (size_t id = 0; id < n; ++id) {
      const std::string& s = str(static_cast<ValueId>(id));
      h = MixU64(h ^ s.size());
      for (char c : s) {
        h = MixU64(h ^ static_cast<uint64_t>(static_cast<uint8_t>(c)));
      }
    }
    return h;
  }

  /// The pool's current generation tag: its size and the PrefixHash over
  /// all of it. Snapshot headers carry the writer's generation; a loader
  /// accepts a snapshot into a pool whose ids extend (or are a prefix of)
  /// the writer's — see snapshot::LoadPoolSection.
  StringPoolGeneration Generation() const {
    StringPoolGeneration gen;
    gen.count = size();
    gen.hash = PrefixHash(static_cast<size_t>(gen.count));
    return gen;
  }

  /// The process-wide pool used by data::Value. All relations, rules and
  /// engines in a process share it, so ids from different relations are
  /// directly comparable.
  static StringPool& Global() {
    StringPool* p = global_;
    return p != nullptr ? *p : DefaultInstance();
  }

 private:
  friend class ScopedStringPool;

  // Two-level storage: chunks of kChunkSize strings, allocated on demand and
  // never moved, so readers resolve ids without taking the writer mutex.
  // Cost of the lock-free read path: a fixed 256KB pointer table per pool
  // plus ~256KB for the first chunk's default-constructed strings (~0.5MB
  // per instance — negligible for the process-wide pool, deliberate for
  // test-scoped ScopedStringPools), and an id capacity of 2^28 instead of
  // the old deque's ~2^32 (observed pools hold well under 2^24; exhaustion
  // aborts loudly via UC_CHECK).
  static constexpr size_t kChunkBits = 13;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 8192
  static constexpr size_t kMaxChunks = size_t{1} << 15;
  static constexpr ValueId kCapacity =
      static_cast<ValueId>(kChunkSize * kMaxChunks);  // 2^28 ids

  /// Lazily creates the process default pool (safe under any static
  /// initialization order) and installs it as the global.
  static StringPool& DefaultInstance();

  /// The interning body; requires mutex_ held.
  Result<ValueId> InternLocked(std::string_view s) {
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const ValueId id = size_.load(std::memory_order_relaxed);
    // Never mint kNullId (or wrap): fail loudly instead of silently aliasing.
    if (id >= kCapacity) {
      return Status::OutOfRange(
          "StringPool: id space exhausted (" + std::to_string(kCapacity) +
          " ids interned; ids are never recycled — see ROADMAP 'StringPool "
          "growth')");
    }
    const size_t chunk = id >> kChunkBits;
    std::string* slots = chunks_[chunk].load(std::memory_order_relaxed);
    if (slots == nullptr) {
      slots = new std::string[kChunkSize];
      chunks_[chunk].store(slots, std::memory_order_release);
    }
    std::string& slot = slots[id & (kChunkSize - 1)];
    slot.assign(s.data(), s.size());
    string_bytes_.fetch_add(s.size(), std::memory_order_relaxed);
    // Publish: a reader that acquire-loads size() > id is guaranteed to see
    // the chunk pointer and the slot's characters.
    size_.store(id + 1, std::memory_order_release);
    // The key views the chunk-owned string; chunks never move or shrink.
    index_.emplace(std::string_view(slot), id);
    return id;
  }

  std::unique_ptr<std::atomic<std::string*>[]> chunks_;
  std::atomic<ValueId> size_{0};
  std::atomic<uint64_t> string_bytes_{0};
  mutable std::mutex mutex_;  // guards index_ and all writes
  std::unordered_map<std::string_view, ValueId> index_;
  std::string empty_;

  static StringPool* global_;
};

/// Test-only RAII override: installs a fresh global pool for its lifetime.
/// Every Value, Relation and RuleSet created inside the scope holds ids of
/// the scoped pool and must not outlive it. Used by the interning parity
/// tests to re-run a pipeline under a permuted id assignment. Swapping the
/// global pool is not synchronized: install/uninstall only while no other
/// thread is running pipeline code.
class ScopedStringPool {
 public:
  ScopedStringPool() : previous_(StringPool::global_) {
    StringPool::global_ = &pool_;
  }
  ~ScopedStringPool() { StringPool::global_ = previous_; }

  ScopedStringPool(const ScopedStringPool&) = delete;
  ScopedStringPool& operator=(const ScopedStringPool&) = delete;

  StringPool& pool() { return pool_; }

 private:
  StringPool pool_;
  StringPool* previous_;
};

}  // namespace data
}  // namespace uniclean

#endif  // UNICLEAN_DATA_STRING_POOL_H_
