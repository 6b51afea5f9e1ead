// The arena allocator's own contract (DESIGN.md §16): granule rounding
// and alignment, chunk-growth geometry, reset-and-replay address
// stability, deterministic stats accounting, and — under
// AddressSanitizer — the use-after-reset trap.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/arena.hpp"
#include "util/contracts.hpp"

namespace chronus {
namespace {

using util::Arena;
using util::ArenaAllocator;
using util::ArenaScope;

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(Arena, AllocationsAreGranuleRoundedAndAligned) {
  Arena a;
  ArenaScope claim(a);
  for (const std::size_t align : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}, std::size_t{32},
                                  std::size_t{64}}) {
    void* p = a.allocate(24, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(addr(p) % align, 0u) << "align " << align;
    // Sub-granule alignment still lands on the 8-byte granule grid.
    EXPECT_EQ(addr(p) % Arena::kMinAlign, 0u);
  }
  // Every request is rounded up to whole granules in the accounting.
  Arena b;
  ArenaScope claim_b(b);
  (void)b.allocate(1, 1);
  EXPECT_EQ(b.stats().bytes_requested, Arena::kMinAlign);
  (void)b.allocate(9, 1);
  EXPECT_EQ(b.stats().bytes_requested, 3 * Arena::kMinAlign);
  // Zero-byte allocations occupy one granule each: distinct addresses.
  void* z1 = b.allocate(0, 1);
  void* z2 = b.allocate(0, 1);
  EXPECT_EQ(addr(z2), addr(z1) + Arena::kMinAlign);
}

TEST(Arena, RejectsUnsupportedAlignment) {
  if (util::contract_level() < 1) GTEST_SKIP() << "contracts disabled";
  Arena a;
  ArenaScope claim(a);
  EXPECT_THROW((void)a.allocate(8, 3), util::ContractViolation);
  EXPECT_THROW((void)a.allocate(8, 128), util::ContractViolation);
}

TEST(Arena, OverAlignedArraysLandOnTheirBoundary) {
  struct alignas(64) CacheLine {
    unsigned char bytes[64];
  };
  Arena a;
  {
    ArenaScope claim(a);
    (void)a.allocate(8, 8);  // misalign the cursor first
    CacheLine* rows = a.allocate_array<CacheLine>(3);
    EXPECT_EQ(addr(rows) % 64, 0u);
  }
  // The allocator adapter serves over-aligned element types too.
  std::vector<CacheLine, ArenaAllocator<CacheLine>> v{
      ArenaAllocator<CacheLine>(&a)};
  v.resize(5);
  EXPECT_EQ(addr(v.data()) % 64, 0u);
}

TEST(Arena, ChunkGrowthIsGeometricWithOversizeEscape) {
  Arena a(64);  // tiny first slab so growth is observable
  ArenaScope claim(a);
  EXPECT_EQ(a.stats().chunks, 0u);  // slabs open lazily
  (void)a.allocate(64, 8);
  EXPECT_EQ(a.stats().chunks, 1u);  // first slab: 64 bytes, now full
  (void)a.allocate(8, 8);
  EXPECT_EQ(a.stats().chunks, 2u);  // second slab doubles to 128
  (void)a.allocate(120, 8);         // 8 + 120 = 128: fits exactly
  EXPECT_EQ(a.stats().chunks, 2u);
  (void)a.allocate(8, 8);
  EXPECT_EQ(a.stats().chunks, 3u);  // third slab: 256
  // A request bigger than the next geometric size gets an exact slab.
  (void)a.allocate(10000, 8);
  EXPECT_EQ(a.stats().chunks, 4u);
  EXPECT_EQ(a.stats().allocs, 5u);
}

TEST(Arena, ResetReplayReturnsIdenticalAddresses) {
  Arena a(128);  // force the sequence across several slabs
  ArenaScope claim(a);
  const std::size_t sizes[] = {24, 64, 8, 200, 16, 1000, 48};
  const std::size_t aligns[] = {8, 64, 8, 16, 32, 8, 64};
  std::vector<std::uintptr_t> first;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    first.push_back(addr(a.allocate(sizes[i], aligns[i])));
  }
  const std::uint64_t chunks_before = a.stats().chunks;

  a.reset();
  EXPECT_EQ(a.live_bytes(), 0u);
  EXPECT_EQ(a.stats().resets, 1u);
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    EXPECT_EQ(addr(a.allocate(sizes[i], aligns[i])), first[i])
        << "replayed allocation " << i << " moved";
  }
  // The replay walks the already-opened slabs; none are added.
  EXPECT_EQ(a.stats().chunks, chunks_before);
}

TEST(Arena, HighWaterTracksThePeakAcrossResets) {
  Arena a;
  ArenaScope claim(a);
  for (int i = 0; i < 10; ++i) (void)a.allocate(104, 8);
  EXPECT_EQ(a.live_bytes(), 1040u);
  EXPECT_EQ(a.stats().high_water, 1040u);

  a.reset();
  (void)a.allocate(8, 8);
  EXPECT_EQ(a.live_bytes(), 8u);
  EXPECT_EQ(a.stats().high_water, 1040u);  // the peak survives the reset
  EXPECT_EQ(a.stats().bytes_requested, 1048u);
  EXPECT_EQ(a.stats().allocs, 11u);
}

TEST(Arena, DeallocateDoesNotDisturbTheCursor) {
  Arena a;
  ArenaScope claim(a);
  void* p1 = a.allocate(32, 8);
  a.deallocate(p1, 32);  // bump arenas only reclaim at reset()
  void* p2 = a.allocate(32, 8);
  EXPECT_EQ(addr(p2), addr(p1) + 32);
  EXPECT_EQ(a.live_bytes(), 64u);
}

TEST(Arena, ScopeDoubleClaimIsAContractViolation) {
  if (util::contract_level() < 1) GTEST_SKIP() << "contracts disabled";
  Arena a;
  ArenaScope outer(a);
  EXPECT_THROW(ArenaScope inner(a), util::ContractViolation);
  // The failed claim must not have released the outer one.
  EXPECT_THROW(ArenaScope again(a), util::ContractViolation);
}

TEST(ArenaAllocatorAdapter, ContainersRoundTripValues) {
  Arena a;
  util::ArenaVector<int> v{ArenaAllocator<int>(&a)};
  for (int i = 0; i < 1000; ++i) v.push_back(i * 3);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i * 3);

  util::ArenaString s{ArenaAllocator<char>(&a)};
  for (int i = 0; i < 100; ++i) s.append("chronus");
  EXPECT_EQ(s.size(), 700u);

  // Node-based containers exercise allocator rebinding.
  std::map<int, int, std::less<int>,
           ArenaAllocator<std::pair<const int, int>>>
      m{ArenaAllocator<std::pair<const int, int>>(&a)};
  for (int i = 0; i < 100; ++i) m[i] = -i;
  EXPECT_EQ(m.at(42), -42);
  EXPECT_GT(a.stats().bytes_requested, 0u);
}

TEST(ArenaAllocatorAdapter, EqualityFollowsTheArena) {
  Arena a;
  Arena b;
  EXPECT_EQ(ArenaAllocator<int>(&a), ArenaAllocator<int>(&a));
  EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>(&b));
  EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>());
  // Converting copies point at the same arena.
  const ArenaAllocator<long> rebound{ArenaAllocator<int>(&a)};
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaAllocatorAdapter, NullArenaFallsBackToTheHeap) {
  // Default-constructed adapters (moved-from containers, container
  // internals) must stay fully functional without an arena.
  util::ArenaVector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  util::ArenaString s;
  s = "heap-backed";
  EXPECT_EQ(s, "heap-backed");
}

TEST(ArenaAsan, UseAfterResetTraps) {
#if CHRONUS_ARENA_ASAN
  EXPECT_DEATH(
      {
        Arena a;
        ArenaScope claim(a);
        auto* p = static_cast<volatile unsigned char*>(a.allocate(64, 8));
        p[0] = 42;
        a.reset();          // re-poisons every slab
        (void)p[0];         // stale read into the previous request
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "requires an AddressSanitizer build (sanitize preset)";
#endif
}

}  // namespace
}  // namespace chronus
