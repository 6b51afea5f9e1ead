// Search-state vocabulary shared by the two branch-and-bound solvers
// (mutp_bnb.cpp, order_bnb.cpp). Each solve builds these once; erase and
// re-insert move elements inside buffers that stop growing once the
// search has reached its deepest frame.
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
#include <deque>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "util/contracts.hpp"

namespace chronus::opt::search_state {

/// A sorted flat node set: ascending iteration like std::set, but erase
/// and (re)insert are memmoves inside one buffer. The search only ever
/// re-inserts previously erased elements, so the buffer never grows
/// mid-search.
class SortedNodeVec {
 public:
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
  std::vector<net::NodeId> v_;
};

/// Flat membership mask over dense node ids.
class NodeMask {
 public:
  explicit NodeMask(std::size_t node_count) : m_(node_count, 0) {}

  void insert(net::NodeId v) { m_[v] = 1; }
  void erase(net::NodeId v) { m_[v] = 0; }
  bool contains(net::NodeId v) const { return m_[v] != 0; }

 private:
  std::vector<unsigned char> m_;
};

/// Fixed-width binary key fragments (see encoding note above).
inline void append_u32(std::string& s, std::uint32_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s.append(b, sizeof(v));
}
inline void append_u64(std::string& s, std::uint64_t v) {
  char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  s.append(b, sizeof(v));
}

/// Section separator inside binary keys: never a valid node id.
inline constexpr std::uint32_t kKeySeparator =
    static_cast<std::uint32_t>(net::kInvalidNode);

/// Per-depth scratch for a recursive search: every frame at depth d reuses
/// slot d, which at_depth() hands back cleared. A deque never moves its
/// elements when it grows, so the slot a frame holds survives deeper
/// frames adding theirs.
template <typename Slot>
class DepthSlots {
 public:
  /// `args` construct a slot the first time depth `d` is reached.
  template <typename... Args>
  Slot& at_depth(std::size_t d, const Args&... args) {
    while (d >= slots_.size()) slots_.emplace_back(args...);
    Slot& slot = slots_[d];
    slot.clear();
    return slot;
  }

 private:
  std::deque<Slot> slots_;
};

}  // namespace chronus::opt::search_state
