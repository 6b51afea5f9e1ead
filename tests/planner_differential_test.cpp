// The planner golden digest: a 25-instance property corpus replayed
// through G_T construction (Definition 4), timed path enumeration, the
// greedy and both branch-and-bound baselines (OPT: MUTP, OR: order
// replacement), every output folded into one canonical transcript and
// hashed with 64-bit FNV-1a. The pinned value was recorded while a
// second, heap-backed implementation of each structure still existed and
// replayed the corpus to the same digest, so it holds the single arena
// layout to what both computed: schedules, round structures, node
// counts, optimality flags, timed-link ids and per-slot orders, the
// enumerated paths, and the mutp.* / order.* search counters. The order
// search finds round-minimal sequences a greedy cannot (Amiri et al.,
// "Being Greedy is Hard"); its other tests check only round safety and a
// few round counts, so this is where a drift in its exact output shows.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "obs/metrics.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
#include "timenet/path_enum.hpp"
#include "timenet/time_extended.hpp"

namespace chronus {
namespace {

using timenet::TimePoint;

/// FNV-1a of the transcript; see the header comment for its provenance.
constexpr std::uint64_t kGoldenDigest = 0x1b16ceb822c2cb20ULL;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<net::UpdateInstance> make_corpus() {
  // The property-test corpus: seeds 800+p, five instances per seed.
  std::vector<net::UpdateInstance> corpus;
  for (int p = 0; p < 5; ++p) {
    util::Rng rng(800 + static_cast<std::uint64_t>(p));
    net::RandomInstanceOptions opt;
    opt.n = 8;
    for (int i = 0; i < 5; ++i) corpus.push_back(net::random_instance(opt, rng));
  }
  return corpus;
}

void put(std::ostream& os, const timenet::UpdateSchedule& s) {
  for (const auto& [v, t] : s.entries()) os << ' ' << v << '@' << t.count();
}

void put(std::ostream& os, const timenet::TimedLink& l) {
  os << ' ' << l.from.node << '@' << l.from.time.count() << '>' << l.to.node
     << '@' << l.to.time.count() << '#' << l.base_link;
}

struct Replay {
  std::string transcript;
  obs::MetricsSnapshot logical;
};

Replay replay(const std::vector<net::UpdateInstance>& corpus) {
  obs::MetricsRegistry reg;
  obs::ScopedMetrics metrics(reg);

  std::ostringstream os;
  for (const net::UpdateInstance& inst : corpus) {
    core::GreedyOptions gopts;
    gopts.record_steps = false;
    const auto plan = core::greedy_schedule(inst, gopts);
    os << "greedy " << static_cast<int>(plan.status);
    put(os, plan.schedule);

    const auto m = opt::solve_mutp(inst);
    os << "\nmutp " << static_cast<int>(m.status) << ' ' << m.nodes_explored
       << ' ' << m.proved_optimal;
    put(os, m.schedule);

    const auto o = opt::solve_order_replacement(inst);
    os << "\norder " << o.feasible << ' ' << o.nodes_explored << ' '
       << o.proved_optimal;
    for (const auto& round : o.rounds) {
      os << " |";
      for (const net::NodeId v : round) os << ' ' << v;
    }

    // G_T expansion: ids and contents, then per-slot out-orders.
    const net::Graph& g = inst.graph();
    const TimePoint t0{0};
    const TimePoint t1{3};
    timenet::TimeExtendedNetwork gt(g, t0, t1);
    os << "\ngt";
    for (std::size_t i = 0; i < gt.link_count(); ++i) put(os, gt.link(i));
    os << "\nslots";
    for (std::size_t v = 0; v < g.node_count(); ++v) {
      for (TimePoint tt = t0; tt <= t1; tt += 1) {
        for (const timenet::TimedLink& l :
             gt.out_links(static_cast<net::NodeId>(v), tt)) {
          put(os, l);
        }
      }
    }

    // Path enumeration over the instance's own endpoints.
    timenet::EnumerateOptions popts;
    popts.t_end = TimePoint{6};
    popts.max_paths = 2000;
    for (const auto& path : timenet::enumerate_timed_paths(
             g, inst.p_init().front(), TimePoint{0}, inst.p_init().back(),
             popts)) {
      os << "\npath";
      for (const timenet::TimedNode& n : path) {
        os << ' ' << n.node << '@' << n.time.count();
      }
    }
    os << '\n';
  }

  Replay r;
  r.logical = reg.snapshot().logical();
  for (const auto& [name, value] : r.logical.counters) {
    if (name.rfind("mutp.", 0) == 0 || name.rfind("order.", 0) == 0) {
      os << name << '=' << value << '\n';
    }
  }
  r.transcript = os.str();
  return r;
}

std::uint64_t arena_counter_total(const obs::MetricsSnapshot& s) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("arena.", 0) == 0) total += value;
  }
  return total;
}

TEST(ArenaDifferential, CorpusReplayMatchesGoldenDigest) {
  const Replay r = replay(make_corpus());
  EXPECT_NE(r.transcript.find("mutp.nodes_visited="), std::string::npos);
  EXPECT_NE(r.transcript.find("order.nodes_visited="), std::string::npos);
  const std::uint64_t digest = fnv1a(r.transcript);
  EXPECT_EQ(digest, kGoldenDigest)
      << "planner outputs drifted: transcript digest 0x" << std::hex << digest;
}

TEST(ArenaDifferential, ArenaReplayIsSelfDeterministic) {
  // Two replays agree on everything *including* the arena.* telemetry,
  // which is a pure function of the allocation sequence (no addresses,
  // no clocks).
  const auto corpus = make_corpus();
  const Replay once = replay(corpus);
  const Replay twice = replay(corpus);
  EXPECT_EQ(once.transcript, twice.transcript);
  EXPECT_EQ(once.logical, twice.logical);
  EXPECT_GT(arena_counter_total(once.logical), 0u);
}

}  // namespace
}  // namespace chronus
