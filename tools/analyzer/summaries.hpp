// Whole-program function summaries for chronus_analyzer (PR 10).
//
// Consumes the per-TU FnDef tables (callgraph.hpp, cached per content
// hash) and links them into one call graph at overload-set granularity:
// a free call site named `f` edges to every definition of `f` anywhere in
// the program (method-qualified definitions keep their qualified names for
// reporting, but resolution is by bare name — the analyzer lexes, it does
// not type-check). Member calls (`x.f()`, `x->f()`) are not linked: with
// the receiver unknown, a bare-name match would tie `r->counter().add(n)`
// to every `add` in the tree. Summaries are then computed bottom-up over
// Tarjan SCCs, iterating inside each SCC to a fixpoint (all summary
// fields are monotone — taint bits and flags only ever widen — so
// termination is structural):
//
//   returns_taint     taint bits (wall / wire / unit) of the function's
//                     return value, local sources unioned with every
//                     callee whose result flows into a `return`.
//   propagates_param  some parameter is mentioned in a return statement —
//                     callers must treat the result as tainted when any
//                     argument is.
//   blocks            the function reaches a blocking primitive through
//                     any depth of calls; `block_chain` is the witness
//                     path, rendered into SARIF relatedLocations.
//   wall/wire         witness chains for the corresponding return-taint
//                     bits, same rendering.
//
// The transitive lock pass lives here too: a call site holding a lock
// whose callee summary `blocks` is the `hold lock → f() → g() → poll()`
// chain the intra-procedural pass cannot see. To keep bare-name
// resolution honest it only fires when *every* candidate definition
// blocks — an overload set where only some overloads block is reported by
// the summary of whichever overload the reviewer actually calls, via the
// baseline, not by guessing.
//
// Summary serialization (`serialize_summary`) doubles as the cache key
// material: the interprocedural result cache keys each TU on its content
// hash *plus* the hash of every summary reachable from it, so editing a
// leaf callee transitively invalidates exactly its callers (cache.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/callgraph.hpp"
#include "analyzer/passes.hpp"

namespace chronus_analyzer {

using chronus_tools::RelatedLocation;

/// Taint bits shared by the dataflow engine and the summary fixpoint
/// (dataflow.hpp's kTaintWall/Wire/Unit mirror these values).
enum : unsigned {
  kSumWall = 1u << 0,
  kSumWire = 1u << 1,
  kSumUnit = 1u << 2,
};

struct FnSummary {
  unsigned returns_taint = 0;
  bool propagates_param = false;
  bool blocks = false;
  std::vector<RelatedLocation> block_chain;
  std::vector<RelatedLocation> wall_chain;
  std::vector<RelatedLocation> wire_chain;
};

inline constexpr std::size_t kMaxChain = 8;

/// Stable text form of one summary — the unit the interprocedural cache
/// key hashes. Chains are included: a chain change re-renders SARIF even
/// when the bits did not move.
inline std::string serialize_summary(const std::string& qname,
                                     const FnSummary& s) {
  std::string out = qname + "|" + std::to_string(s.returns_taint) + "|" +
                    (s.propagates_param ? "p" : "-") + "|" +
                    (s.blocks ? "b" : "-");
  const auto app = [&out](const std::vector<RelatedLocation>& chain) {
    out += "|";
    for (const auto& r : chain) {
      out += r.file + ":" + std::to_string(r.line) + ":" + r.note + ";";
    }
  };
  app(s.block_chain);
  app(s.wall_chain);
  app(s.wire_chain);
  return out;
}

class GlobalSummaries {
 public:
  /// Links every free call across `files` and runs the SCC fixpoint. The
  /// FileFacts vector must outlive this object (nodes point into it).
  void build(const std::vector<FileFacts>& files) {
    nodes_.clear();
    by_name_.clear();
    merged_.clear();
    for (const FileFacts& f : files) {
      for (const FnDef& fn : f.fns) {
        by_name_[fn.name].push_back(nodes_.size());
        nodes_.push_back(Node{&fn, f.rel, {}, {}});
      }
    }
    for (Node& n : nodes_) {
      n.out.reserve(n.def->calls.size());
      for (std::size_t c = 0; c < n.def->calls.size(); ++c) {
        if (n.def->calls[c].member_call) continue;
        const auto it = by_name_.find(n.def->calls[c].name);
        if (it == by_name_.end()) continue;
        for (const std::size_t callee : it->second) {
          n.out.push_back({c, callee});
        }
      }
    }
    run_fixpoint();
    node_hash_.clear();
    node_hash_.reserve(nodes_.size());
    for (const Node& n : nodes_) {
      const std::string s = serialize_summary(n.def->qname, n.sum);
      std::uint64_t h = 1469598103934665603ull;
      for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;
      }
      node_hash_.push_back(h);
    }
    for (const auto& [name, idxs] : by_name_) {
      FnSummary m;
      for (const std::size_t i : idxs) merge_into(&m, nodes_[i].sum);
      merged_[name] = std::move(m);
    }
  }

  /// Overload-set-merged summary for a bare callee name; null when the
  /// name resolves to no definition in the program.
  const FnSummary* merged(const std::string& name) const {
    const auto it = merged_.find(name);
    return it == merged_.end() ? nullptr : &it->second;
  }

  unsigned return_taint_of(const std::string& name) const {
    const FnSummary* s = merged(name);
    return s == nullptr ? 0u : s->returns_taint;
  }

  struct Candidate {
    const FnDef* def;
    const std::string* file;
    const FnSummary* sum;
  };

  std::vector<Candidate> candidates(const std::string& name) const {
    std::vector<Candidate> out;
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return out;
    out.reserve(it->second.size());
    for (const std::size_t i : it->second) {
      out.push_back({nodes_[i].def, &nodes_[i].file, &nodes_[i].sum});
    }
    return out;
  }

  std::size_t node_count() const { return nodes_.size(); }

  /// Hash of every summary reachable from `f`'s own functions and call
  /// sites — the transitive part of the interprocedural cache key. Each
  /// node's summary hash is precomputed in build(); the per-TU combine is
  /// commutative (XOR of well-mixed per-node hashes plus the count), so
  /// no sorting is needed and a warm run's key derivation stays cheap.
  std::uint64_t reachable_hash(const FileFacts& f) const {
    std::vector<char> visited(nodes_.size(), 0);
    std::vector<std::size_t> work;
    std::uint64_t h = 1469598103934665603ull;
    std::size_t count = 0;
    const auto visit = [&](std::size_t i) {
      if (visited[i] != 0) return;
      visited[i] = 1;
      work.push_back(i);
      h ^= node_hash_[i];
      ++count;
    };
    for (const FnDef& fn : f.fns) {
      const auto it = by_name_.find(fn.name);
      if (it != by_name_.end()) {
        for (const std::size_t i : it->second) visit(i);
      }
      for (const CallSite& cs : fn.calls) {
        if (cs.member_call) continue;  // unlinked, as in build()
        const auto ct = by_name_.find(cs.name);
        if (ct == by_name_.end()) continue;
        for (const std::size_t i : ct->second) visit(i);
      }
    }
    while (!work.empty()) {
      const std::size_t n = work.back();
      work.pop_back();
      for (const auto& [c, callee] : nodes_[n].out) {
        (void)c;
        visit(callee);
      }
    }
    return h * 1099511628211ull + count;
  }

 private:
  struct Node {
    const FnDef* def;
    std::string file;  // rel path of the defining TU
    FnSummary sum;
    std::vector<std::pair<std::size_t, std::size_t>> out;  // (call, callee)
  };

  static void append_chain(std::vector<RelatedLocation>* dst,
                           const RelatedLocation& head,
                           const std::vector<RelatedLocation>& tail) {
    dst->clear();
    dst->push_back(head);
    for (const auto& r : tail) {
      if (dst->size() >= kMaxChain) break;
      dst->push_back(r);
    }
  }

  static void merge_into(FnSummary* m, const FnSummary& s) {
    m->returns_taint |= s.returns_taint;
    m->propagates_param = m->propagates_param || s.propagates_param;
    m->blocks = m->blocks || s.blocks;
    if (m->block_chain.empty()) m->block_chain = s.block_chain;
    if (m->wall_chain.empty()) m->wall_chain = s.wall_chain;
    if (m->wire_chain.empty()) m->wire_chain = s.wire_chain;
  }

  /// One monotone update of node `n` from its local facts and current
  /// callee summaries. Returns true when anything widened.
  bool update(std::size_t n) {
    Node& node = nodes_[n];
    const FnDef& def = *node.def;
    FnSummary next = node.sum;

    next.propagates_param = next.propagates_param || def.propagates_param;

    if (def.local_blocks && !next.blocks) {
      next.blocks = true;
      next.block_chain = {{node.file, def.block_line,
                           "'" + def.qname + "' calls blocking '" +
                               def.block_callee + "(' directly"}};
    }
    const unsigned local = def.local_return_taint;
    if ((local & ~next.returns_taint) != 0) {
      next.returns_taint |= local;
      const RelatedLocation here{
          node.file, def.head_line,
          "'" + def.qname + "' derives the value locally"};
      if ((local & kSumWall) != 0 && next.wall_chain.empty()) {
        next.wall_chain = {here};
      }
      if ((local & kSumWire) != 0 && next.wire_chain.empty()) {
        next.wire_chain = {here};
      }
    }

    for (const auto& [c, callee] : node.out) {
      const CallSite& cs = def.calls[c];
      const FnSummary& cs_sum = nodes_[callee].sum;
      const std::string& cs_qname = nodes_[callee].def->qname;

      if (cs_sum.blocks && !next.blocks) {
        next.blocks = true;
        append_chain(&next.block_chain,
                     {node.file, cs.line,
                      "'" + def.qname + "' calls '" + cs_qname + "'"},
                     cs_sum.block_chain);
      }
      if (!cs.in_return) continue;
      const unsigned fresh = cs_sum.returns_taint & ~next.returns_taint;
      if (fresh == 0) continue;
      next.returns_taint |= cs_sum.returns_taint;
      const RelatedLocation via{node.file, cs.line,
                                "'" + def.qname + "' returns via '" +
                                    cs_qname + "'"};
      if ((fresh & kSumWall) != 0) {
        append_chain(&next.wall_chain, via, cs_sum.wall_chain);
      }
      if ((fresh & kSumWire) != 0) {
        append_chain(&next.wire_chain, via, cs_sum.wire_chain);
      }
    }

    const bool changed = next.returns_taint != node.sum.returns_taint ||
                         next.blocks != node.sum.blocks ||
                         next.propagates_param != node.sum.propagates_param;
    node.sum = std::move(next);
    return changed;
  }

  /// Tarjan SCCs (iterative), then bottom-up fixpoint: Tarjan emits each
  /// SCC only after every SCC it can reach, so processing components in
  /// emission order sees final callee summaries; inside a component we
  /// iterate until no member widens.
  void run_fixpoint() {
    const std::size_t n = nodes_.size();
    std::vector<long> index(n, -1), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;
    std::vector<std::vector<std::size_t>> sccs;
    long next_index = 0;

    struct Frame {
      std::size_t v;
      std::size_t edge = 0;
    };
    for (std::size_t root = 0; root < n; ++root) {
      if (index[root] != -1) continue;
      std::vector<Frame> frames{{root, 0}};
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!frames.empty()) {
        Frame& fr = frames.back();
        if (fr.edge < nodes_[fr.v].out.size()) {
          const std::size_t w = nodes_[fr.v].out[fr.edge++].second;
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = true;
            frames.push_back({w, 0});
          } else if (on_stack[w]) {
            low[fr.v] = std::min(low[fr.v], index[w]);
          }
          continue;
        }
        if (low[fr.v] == index[fr.v]) {
          std::vector<std::size_t> scc;
          for (;;) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == fr.v) break;
          }
          sccs.push_back(std::move(scc));
        }
        const std::size_t v = fr.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }

    for (const auto& scc : sccs) {
      bool changed = true;
      std::size_t rounds = 0;
      while (changed && ++rounds <= scc.size() + 4) {
        changed = false;
        for (const std::size_t v : scc) changed = update(v) || changed;
      }
    }
  }

  std::vector<Node> nodes_;
  /// FNV of serialize_summary(node), memoized post-fixpoint —
  /// reachable_hash runs once per TU and must not re-render summaries.
  std::vector<std::uint64_t> node_hash_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::string, FnSummary> merged_;
};

/// The transitive lock-across-blocking pass: free call sites holding a
/// lock whose callee summary reaches a blocking primitive through any depth.
/// Fires only when every candidate definition blocks (see file comment);
/// the direct-primitive case stays with the classic intra pass.
inline void transitive_lock_pass(const FileFacts& f, const GlobalSummaries& g,
                                 std::vector<Finding>& out) {
  for (const FnDef& fn : f.fns) {
    for (const CallSite& cs : fn.calls) {
      if (cs.lock_expr.empty() || cs.member_call) continue;
      const auto cands = g.candidates(cs.name);
      if (cands.empty()) continue;
      bool all_block = true;
      for (const auto& c : cands) all_block = all_block && c.sum->blocks;
      if (!all_block) continue;
      if (facts_allowed(f, "lock-across-blocking", cs.line)) continue;
      if (fn_allowed(f.fn_allowances, "lock-across-blocking", fn.head_line,
                     fn.end_line)) {
        continue;
      }
      const auto& c = cands.front();
      Finding finding{
          f.rel, cs.line, "lock-across-blocking",
          "'" + cs.name + "(...)' transitively reaches a blocking call "
          "while holding '" + cs.lock_expr + "' (guard at line " +
              std::to_string(cs.lock_line) +
              ") — blocking under a lock stalls every contender; chain "
              "starts at '" + c.def->qname + "'"};
      finding.related.push_back({*c.file, c.def->head_line,
                                 "'" + c.def->qname + "' defined here"});
      for (const auto& r : c.sum->block_chain) {
        if (finding.related.size() >= kMaxChain) break;
        finding.related.push_back(r);
      }
      out.push_back(std::move(finding));
    }
  }
}

}  // namespace chronus_analyzer
