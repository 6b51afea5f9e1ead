// Arena-backed search-state vocabulary shared by the two branch-and-bound
// solvers (mutp_bnb.cpp, order_bnb.cpp). Each solve owns one util::Arena
// for its whole search; every structure below draws from it, so a search
// costs a few slab allocations instead of one heap allocation per node.
//
// Encoding note: memo keys are fixed-width little-endian binary
// (append_u32/append_u64). Where a key joins two variable-length runs
// (MUTP's pending set, then its recent updates) the first ends in
// kKeySeparator, which is never a node id, so the encoding is injective:
// two search states share a memo entry iff their tuples are equal.
// tests/planner_differential_test.cpp pins the resulting memo-hit and
// node counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "net/graph.hpp"
#include "util/arena.hpp"
#include "util/contracts.hpp"

namespace chronus::opt::arena_search {

/// A sorted flat node set: ascending iteration like std::set, but erase
/// and (re)insert are memmoves inside one bump-allocated buffer. The
/// search only ever re-inserts previously erased elements, so capacity is
/// reserved once and never grows mid-search.
class SortedNodeVec {
 public:
  explicit SortedNodeVec(util::Arena* arena)
      : v_(util::ArenaAllocator<net::NodeId>(arena)) {}

  template <typename It>
  void assign_sorted(It first, It last) {
    v_.assign(first, last);
    CHRONUS_EXPECTS(std::is_sorted(v_.begin(), v_.end()),
                    "SortedNodeVec::assign_sorted needs ascending input");
  }

  void insert(net::NodeId x) {
    v_.insert(std::lower_bound(v_.begin(), v_.end(), x), x);
  }
  void erase(net::NodeId x) {
    const auto it = std::lower_bound(v_.begin(), v_.end(), x);
    if (it != v_.end() && *it == x) v_.erase(it);
  }

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  auto begin() const { return v_.begin(); }
  auto end() const { return v_.end(); }

 private:
  util::ArenaVector<net::NodeId> v_;
};

/// Flat membership mask over dense node ids.
class NodeMask {
 public:
  NodeMask(util::Arena* arena, std::size_t node_count)
      : m_(node_count, 0, util::ArenaAllocator<unsigned char>(arena)) {}

  void insert(net::NodeId v) { m_[v] = 1; }
  void erase(net::NodeId v) { m_[v] = 0; }
  bool contains(net::NodeId v) const { return m_[v] != 0; }

 private:
  util::ArenaVector<unsigned char> m_;
};

/// Fixed-width binary key fragments (see encoding note above).
inline void append_u32(util::ArenaString& s, std::uint32_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s.append(b, sizeof(v));
}
inline void append_u64(util::ArenaString& s, std::uint64_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s.append(b, sizeof(v));
}

/// Section separator inside binary keys: never a valid node id.
inline constexpr std::uint32_t kKeySeparator =
    static_cast<std::uint32_t>(net::kInvalidNode);

/// Placement-construct a T inside the arena and return its (stable)
/// address. The object's destructor never runs — its memory is released
/// wholesale when the arena dies — so T must only own arena-backed
/// resources. Used for pool slots whose addresses must survive pool
/// growth (a plain vector-of-T pool would invalidate references held by
/// shallower recursion frames on reallocation).
template <typename T, typename... Args>
T* arena_new(util::Arena* arena, Args&&... args) {
  util::ArenaAllocator<T> alloc(arena);
  T* p = alloc.allocate(1);
  return ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
}

/// Per-depth candidate lists for a recursive search. Slots are arena_new'd,
/// so the reference a recursion frame keeps across deeper calls survives
/// pool growth; at_depth() hands its slot back cleared.
class CandPool {
 public:
  using CandVec = util::ArenaVector<net::NodeId>;

  explicit CandPool(util::Arena* arena)
      : arena_(arena), pool_(util::ArenaAllocator<CandVec*>(arena)) {}

  CandVec& at_depth(std::size_t d) {
    while (d >= pool_.size()) {
      pool_.push_back(arena_new<CandVec>(
          arena_, util::ArenaAllocator<net::NodeId>(arena_)));
    }
    pool_[d]->clear();
    return *pool_[d];
  }

 private:
  util::Arena* arena_;
  util::ArenaVector<CandVec*> pool_;
};

}  // namespace chronus::opt::arena_search
