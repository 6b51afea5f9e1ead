// Per-request bump allocation for the planner hot paths.
//
// Chronus plans on the critical path between a request arriving and its
// scheduled install instant: every `G_T` build, path enumeration and B&B
// probe allocates a burst of short-lived nodes/edges/states whose
// lifetimes all end together when the request's plan is emitted. A
// general-purpose heap pays per-object malloc/free plus cache-hostile
// scatter for that pattern; an arena pays one pointer bump per object and
// one `reset()` per request.
//
// Design (DESIGN.md §16):
//
//   * `Arena` owns a chain of geometrically growing slabs ("chunks").
//     Chunk bases are aligned to `kMaxAlign` (64) and every allocation is
//     rounded up to `kMinAlign` (8) granules, so ASan poisoning — which
//     tracks shadow memory at 8-byte granularity — can fence allocations
//     exactly.
//   * `reset()` keeps the chunks and rewinds the cursor. Replaying the
//     same allocation sequence after a reset returns the same addresses
//     (asserted in tests/arena_test.cpp), which is what makes per-request
//     reuse free. Under AddressSanitizer, reset() re-poisons every chunk,
//     so a stale pointer into the previous request traps immediately.
//   * Stats (`ArenaStats`) are plain integers derived from the allocation
//     sequence only — no wall clock, no addresses — so callers can export
//     them as deterministic counters through MetricsRegistry::logical().
//     util sits below obs in the layering DAG (tools/layering.toml), so
//     the arena itself never touches the registry; owners in timenet/opt
//     flush `stats()` through obs::add at the end of a request.
//   * Thread confinement is part of the contract, not an afterthought: an
//     Arena is a Clang thread-safety capability, its raw mutating API
//     requires the capability, and `ArenaScope` is the scoped way to
//     claim it. The `ArenaAllocator` adapter is the blessed doorway for
//     std containers and is exempt from the analysis (the scope that owns
//     the container owns the confinement); a second live ArenaScope on
//     the same arena is a cheap-contract violation at runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

// AddressSanitizer manual poisoning: feature-detect on both GCC
// (__SANITIZE_ADDRESS__) and Clang (__has_feature). When ASan is absent
// the poison calls compile to nothing.
// clang-format off
#if defined(__SANITIZE_ADDRESS__)
#  define CHRONUS_ARENA_ASAN 1
#elif defined(__has_feature)
#  if __has_feature(address_sanitizer)
#    define CHRONUS_ARENA_ASAN 1
#  endif
#endif
#ifndef CHRONUS_ARENA_ASAN
#  define CHRONUS_ARENA_ASAN 0
#endif
#if CHRONUS_ARENA_ASAN
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t n);
void __asan_unpoison_memory_region(void const volatile* addr, std::size_t n);
}
#endif
// clang-format on

namespace chronus::util {

/// Deterministic allocation accounting: pure functions of the allocation
/// sequence (sizes and order), never of addresses or time, so they can be
/// exported as logical() metric counters and replayed bit-identically.
struct ArenaStats {
  std::uint64_t bytes_requested = 0;  ///< granule-rounded bytes handed out
  std::uint64_t allocs = 0;           ///< allocate() calls
  std::uint64_t chunks = 0;           ///< slabs opened over the lifetime
  std::uint64_t resets = 0;           ///< reset() calls
  std::uint64_t high_water = 0;       ///< max live bytes between resets
};

/// A thread-confined bump allocator over geometrically growing slabs.
class CHRONUS_CAPABILITY("arena") Arena {
 public:
  /// Granule size: every allocation is rounded up to a multiple of this,
  /// matching ASan's 8-byte shadow granularity so poisoned fences land
  /// exactly on allocation boundaries.
  static constexpr std::size_t kMinAlign = 8;
  /// Chunk bases are aligned this strongly, which caps the alignment an
  /// allocation may request (enough for every over-aligned SIMD/cacheline
  /// type the hot paths use).
  static constexpr std::size_t kMaxAlign = 64;
  /// First slab size; subsequent slabs double.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{64} * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(round_up(
            first_chunk_bytes == 0 ? kMinAlign : first_chunk_bytes,
            kMinAlign)) {}

  ~Arena() {
    for (Chunk& c : chunks_) {
#if CHRONUS_ARENA_ASAN
      __asan_unpoison_memory_region(c.data, c.cap);
#endif
      ::operator delete(c.data, std::align_val_t{kMaxAlign});
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` with alignment `align` (power of two,
  /// <= kMaxAlign). Never returns nullptr; throws std::bad_alloc only if
  /// the underlying slab allocation fails.
  void* allocate(std::size_t bytes, std::size_t align) CHRONUS_REQUIRES(this) {
    CHRONUS_EXPECTS(align > 0 && (align & (align - 1)) == 0,
                    "arena alignment must be a power of two");
    CHRONUS_EXPECTS(align <= kMaxAlign, "arena alignment capped at 64");
    const std::size_t a = align < kMinAlign ? kMinAlign : align;
    const std::size_t need = round_up(bytes == 0 ? 1 : bytes, kMinAlign);

    offset_ = round_up(offset_, a);
    while (cur_ >= chunks_.size() || offset_ + need > chunks_[cur_].cap) {
      if (cur_ + 1 < chunks_.size()) {
        // A later, already-opened slab may fit (e.g. an oversized slab
        // opened before a reset); advance into it — this keeps replayed
        // allocation sequences walking the same slabs after reset().
        ++cur_;
        offset_ = 0;
        continue;
      }
      open_chunk(need);
      offset_ = 0;
    }

    unsigned char* p = chunks_[cur_].data + offset_;
    offset_ += need;
#if CHRONUS_ARENA_ASAN
    __asan_unpoison_memory_region(p, need);
#endif
    live_ += need;
    stats_.bytes_requested += need;
    ++stats_.allocs;
    if (live_ > stats_.high_water) stats_.high_water = live_;
    return p;
  }

  /// Typed convenience over allocate(): `n` default-constructible slots.
  template <typename T>
  T* allocate_array(std::size_t n) CHRONUS_REQUIRES(this) {
    static_assert(alignof(T) <= kMaxAlign);
    CHRONUS_EXPECTS(n <= std::numeric_limits<std::size_t>::max() / sizeof(T));
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Return an allocation to the arena. Bump allocators cannot reuse the
  /// space before reset(); under ASan the region is re-poisoned so stale
  /// reads of grown-away container buffers trap immediately.
  void deallocate(void* p, std::size_t bytes) noexcept {
#if CHRONUS_ARENA_ASAN
    if (p != nullptr) {
      __asan_poison_memory_region(p, round_up(bytes == 0 ? 1 : bytes,
                                              kMinAlign));
    }
#else
    (void)p;
    (void)bytes;
#endif
  }

  /// Rewind the cursor to empty, keeping the slabs for reuse. Replaying
  /// the same allocation sequence afterwards returns identical addresses.
  void reset() CHRONUS_REQUIRES(this) {
#if CHRONUS_ARENA_ASAN
    for (Chunk& c : chunks_) __asan_poison_memory_region(c.data, c.cap);
#endif
    cur_ = 0;
    offset_ = 0;
    live_ = 0;
    ++stats_.resets;
  }

  const ArenaStats& stats() const noexcept { return stats_; }

  /// Bytes currently handed out since the last reset.
  std::size_t live_bytes() const noexcept { return live_; }

  // Capability plumbing for ArenaScope. The runtime part is a cheap
  // contract that catches a second concurrent claim of the same arena
  // from within one thread of execution; the compile-time part is the
  // Clang capability the raw API requires.
  void acquire() CHRONUS_ACQUIRE() {
    CHRONUS_EXPECTS(!engaged_, "arena is thread-confined: already claimed");
    engaged_ = true;
  }
  void release() CHRONUS_RELEASE() { engaged_ = false; }

 private:
  struct Chunk {
    unsigned char* data = nullptr;
    std::size_t cap = 0;
  };

  static constexpr std::size_t round_up(std::size_t v,
                                        std::size_t a) noexcept {
    return (v + (a - 1)) & ~(a - 1);
  }

  void open_chunk(std::size_t need) {
    std::size_t cap =
        chunks_.empty() ? first_chunk_bytes_ : chunks_.back().cap * 2;
    if (cap < need) cap = round_up(need, kMinAlign);
    auto* data = static_cast<unsigned char*>(
        ::operator new(cap, std::align_val_t{kMaxAlign}));
#if CHRONUS_ARENA_ASAN
    __asan_poison_memory_region(data, cap);
#endif
    chunks_.push_back(Chunk{data, cap});
    cur_ = chunks_.size() - 1;
    ++stats_.chunks;
  }

  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;     ///< index of the slab the cursor is in
  std::size_t offset_ = 0;  ///< bump offset within chunks_[cur_]
  std::size_t live_ = 0;
  bool engaged_ = false;
  ArenaStats stats_;
};

/// Scoped claim of an arena's thread-confinement capability. Library code
/// that calls the raw Arena API does so inside one of these; on Clang a
/// missing scope is a -Wthread-safety error, and at runtime a nested
/// claim is a cheap-contract violation.
class CHRONUS_SCOPED_CAPABILITY ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) CHRONUS_ACQUIRE(arena) : arena_(arena) {
    arena_.acquire();
  }
  ~ArenaScope() CHRONUS_RELEASE() { arena_.release(); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
};

/// C++17 allocator adapter so std containers can live in an arena. The
/// adapter is the sanctioned doorway through the arena's confinement
/// capability: the ArenaScope (or owning object) that created the
/// container is responsible for keeping it thread-confined, so the
/// allocator's calls are exempt from the static analysis.
///
/// A default-constructed adapter (no arena) falls back to the global
/// heap — it exists so moved-from containers and container machinery
/// that default-constructs allocators stay well-defined; hot-path code
/// always passes an arena explicitly.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT(runtime/explicit)
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) CHRONUS_NO_THREAD_SAFETY_ANALYSIS {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return static_cast<T*>(
          ::operator new(bytes, std::align_val_t{alignof(T)}));
    } else {
      return static_cast<T*>(::operator new(bytes));
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T));
      return;
    }
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, std::align_val_t{alignof(T)});
    } else {
      ::operator delete(p);
    }
  }

  Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator& b) noexcept {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a,
                         const ArenaAllocator& b) noexcept {
    return !(a == b);
  }

 private:
  template <typename U>
  friend class ArenaAllocator;

  Arena* arena_ = nullptr;
};

/// Shorthand for the common container shapes in the hot paths.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;
using ArenaString =
    std::basic_string<char, std::char_traits<char>, ArenaAllocator<char>>;

}  // namespace chronus::util
