// Differential tests: the dense Algorithms 2-4 (DependencyTable, the
// incremental Algorithm4Context, greedy_schedule) against the map-based
// oracles in tests/greedy_oracle.hpp. Random instances (4-63 switches,
// slack 0-0.6, delays 1-3, extra redirect rules) get random pending /
// updated splits, overlapping ones included; the incremental Algorithm 4
// context is compared with a fresh snapshot after every step of a greedy
// run and of random update orders; the greedy itself must match the
// oracle loop field by field in all 8 option combinations. Golden
// digests pin the pure greedy's schedules at Fig. 10 scale and the
// guarded greedy's outputs and counters on fat-tree reroutes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/loop_check.hpp"
#include "greedy_oracle.hpp"
#include "net/generators.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "service/capacity_ledger.hpp"
#include "service/service.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"
#include "util/rng.hpp"

namespace chronus::core {
namespace {

using net::NodeId;
using timenet::TimePoint;

/// 4-63 switches, slack 0-0.6, delays 1..1-3, and up to three redirect
/// rules over existing links (switches off p_fin, as in the paper's
/// v5 -> v2, and rules that create loops or dead ends).
net::UpdateInstance random_case(util::Rng& rng) {
  net::RandomInstanceOptions opt;
  opt.n = static_cast<std::size_t>(rng.uniform_int(4, 63));
  opt.slack_prob = rng.uniform(0.0, 0.6);
  opt.delay_max = rng.uniform_int(1, 3);
  net::UpdateInstance inst = net::random_instance(opt, rng);
  const net::Graph& g = inst.graph();
  const auto redirects = rng.uniform_int(0, 3);
  for (std::int64_t r = 0; r < redirects; ++r) {
    const auto v = static_cast<NodeId>(rng.index(g.node_count()));
    const auto out = g.out_links(v);
    if (out.empty()) continue;
    inst.set_new_next(v, g.link(out[rng.index(out.size())]).dst);
  }
  return inst;
}

void expect_same_deps(const DependencySet& got, const DependencySet& want) {
  EXPECT_EQ(got.chains, want.chains);
  EXPECT_EQ(got.has_cycle, want.has_cycle);
}

void expect_same_result(const ScheduleResult& got, const ScheduleResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.message, want.message);
  EXPECT_EQ(got.schedule, want.schedule);
  EXPECT_EQ(got.verified, want.verified);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].time, want.steps[i].time) << "step " << i;
    EXPECT_EQ(got.steps[i].updated, want.steps[i].updated) << "step " << i;
    expect_same_deps(got.steps[i].dependencies, want.steps[i].dependencies);
  }
}

TEST(GreedyDifferential, DependencyTableMatchesOracleOnRandomSplits) {
  util::Rng rng(0x15a1);
  std::size_t relations = 0;
  for (int c = 0; c < 300; ++c) {
    const net::UpdateInstance inst = random_case(rng);
    const std::size_t n = inst.graph().node_count();
    std::vector<NodeId> all(n);
    for (NodeId v = 0; v < n; ++v) all[v] = v;
    DependencyTable table(inst, all);  // one table across all of the passes
    std::vector<NodeId> heads;
    for (int split = 0; split < 6; ++split) {
      // Every node lands in pending, updated, both or neither; the
      // switches to update are pending more often, as in a real run.
      std::set<NodeId> pending;
      std::set<NodeId> updated;
      for (NodeId v = 0; v < n; ++v) {
        const bool to_update = inst.needs_update(v);
        if (rng.chance(to_update ? 0.7 : 0.2)) pending.insert(v);
        if (rng.chance(split % 2 == 0 ? 0.1 : 0.3)) updated.insert(v);
      }
      const DependencySet want =
          oracle::find_dependencies(inst, updated, pending);
      expect_same_deps(find_dependencies(inst, updated, pending), want);

      const std::vector<NodeId> ids(pending.begin(), pending.end());
      std::vector<std::uint8_t> live(n, 0);
      for (const NodeId v : pending) live[v] = updated.count(v) ? 0 : 1;
      EXPECT_EQ(table.heads(ids, live, heads), want.has_cycle);
      EXPECT_EQ(heads, want.heads());
      expect_same_deps(table.build(ids, live), want);
      relations += ids.size() - heads.size();
    }
  }
  EXPECT_GT(relations, 1000u) << "the instance space produced few relations";
}

/// Replays `steps` (switches updated per time step) through the
/// incremental context and checks every switch at several times against a
/// fresh oracle snapshot, before and after each fold.
void check_alg4_replay(
    const net::UpdateInstance& inst,
    const std::vector<std::pair<TimePoint, std::vector<NodeId>>>& steps) {
  const auto n = static_cast<NodeId>(inst.graph().node_count());
  Algorithm4Context ctx(inst);
  oracle::Algorithm4Context snapshot(inst);
  std::set<NodeId> updated;
  timenet::UpdateSchedule sched;
  const auto compare = [&](TimePoint at, const char* when) {
    for (NodeId v = 0; v < n; ++v) {
      for (std::int64_t dt = -4; dt <= 4; ++dt) {
        ASSERT_EQ(ctx.loops(v, at + dt), snapshot.loops(v, at + dt))
            << when << ": switch " << v << " at t=" << (at + dt).count()
            << " after " << updated.size() << " updates";
      }
    }
  };
  snapshot.begin_step(updated, sched);
  compare(TimePoint{0}, "initial state");
  for (const auto& [t, group] : steps) {
    ctx.begin_step();
    snapshot.begin_step(updated, sched);
    compare(t, "after begin_step");
    for (const NodeId v : group) {
      ctx.note_update(v, t);
      updated.insert(v);
      sched.set(v, t);
    }
    compare(t, "noted but not folded");
  }
  ctx.begin_step();
  snapshot.begin_step(updated, sched);
  compare(steps.empty() ? TimePoint{0} : steps.back().first, "final state");
}

TEST(GreedyDifferential, IncrementalAlgorithm4MatchesSnapshotEveryStep) {
  util::Rng rng(0x15a4);
  for (int c = 0; c < 120; ++c) {
    const net::UpdateInstance inst = random_case(rng);
    // The pure greedy's own update order (forced completion included).
    GreedyOptions opts;
    opts.guard_with_verifier = false;
    opts.force_complete = true;
    const ScheduleResult res = greedy_schedule(inst, opts);
    check_alg4_replay(inst, res.schedule.by_time());
    if (HasFatalFailure()) return;

    // A random order, several switches per step, times not always
    // increasing: configurations that loop or blackhole mid-way.
    std::vector<NodeId> order = inst.switches_to_update();
    rng.shuffle(order);
    std::vector<std::pair<TimePoint, std::vector<NodeId>>> steps;
    for (std::size_t i = 0; i < order.size();) {
      const auto take = static_cast<std::size_t>(rng.uniform_int(1, 3));
      std::vector<NodeId> group;
      for (std::size_t k = 0; k < take && i < order.size(); ++k) {
        group.push_back(order[i++]);
      }
      steps.emplace_back(TimePoint{rng.uniform_int(-2, 40)}, std::move(group));
    }
    check_alg4_replay(inst, steps);
    if (HasFatalFailure()) return;
  }
}

TEST(GreedyDifferential, Algorithm4LoopCheckMatchesSnapshot) {
  util::Rng rng(0x15a5);
  for (int c = 0; c < 60; ++c) {
    const net::UpdateInstance inst = random_case(rng);
    std::set<NodeId> updated;
    timenet::UpdateSchedule sched;
    for (const NodeId v : inst.switches_to_update()) {
      if (!rng.chance(0.4)) continue;
      updated.insert(v);
      sched.set(v, TimePoint{rng.uniform_int(0, 10)});
    }
    oracle::Algorithm4Context snapshot(inst);
    snapshot.begin_step(updated, sched);
    for (const NodeId v : inst.switches_to_update()) {
      const TimePoint t{rng.uniform_int(-2, 12)};
      EXPECT_EQ(algorithm4_loop_check(inst, sched, updated, v, t),
                snapshot.loops(v, t));
    }
  }
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// True iff a guarded run that ended in a stall skipped probes: some
/// stalled round before the last one fell at or after the state's settle
/// time. The accepted updates are replayed in the greedy's own order (by
/// time, ascending id).
bool stall_settled(const net::UpdateInstance& inst, const ScheduleResult& res) {
  if (res.status != ScheduleStatus::kInfeasible ||
      !res.message.starts_with("no progress")) {
    return false;
  }
  timenet::TransitionState state(inst);
  for (const auto& [t, group] : res.schedule.by_time()) {
    for (const NodeId v : group) {
      if (!state.try_update(v, t)) return false;
    }
  }
  const net::Graph& g = inst.graph();
  const std::int64_t stall_limit =
      static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay() + 2;
  const TimePoint last_progress =
      res.schedule.empty() ? TimePoint{-1} : res.schedule.last_time();
  return state.settle_time() <= last_progress + stall_limit;
}

TEST(GreedyDifferential, GreedyMatchesOracleInAllOptionCombinations) {
  util::Rng rng(0x15a2);
  int kinds[3] = {0, 0, 0};  // feasible, infeasible, best effort
  int settled = 0;  // guarded stalls that stopped probing
  for (int c = 0; c < 90; ++c) {
    const net::UpdateInstance inst = random_case(rng);
    for (int mask = 0; mask < 8; ++mask) {
      GreedyOptions opts;
      opts.guard_with_verifier = (mask & 1) != 0;
      opts.force_complete = (mask & 2) != 0;
      opts.record_steps = (mask & 4) != 0;
      // The guarded runs probe the exact state; keep them to the smaller
      // half of the space so the suite stays fast under the sanitizers.
      if (opts.guard_with_verifier && inst.graph().node_count() > 40) continue;
      std::uint64_t oracle_checks = 0;
      const ScheduleResult want =
          oracle::greedy_schedule(inst, opts, &oracle_checks);
      obs::MetricsRegistry reg;
      ScheduleResult got;
      {
        const obs::ScopedMetrics scoped(reg);
        got = greedy_schedule(inst, opts);
      }
      expect_same_result(got, want);
      const obs::MetricsSnapshot snap = reg.snapshot();
      // The metric contract: one Alg. 3 pass per round, one
      // loopcheck.invocations per Alg. 4 query.
      EXPECT_EQ(counter(snap, "greedy.dep_rebuilds"),
                counter(snap, "greedy.rounds"));
      EXPECT_EQ(counter(snap, "loopcheck.invocations"), oracle_checks);
      if (HasFailure()) {
        ADD_FAILURE() << "case " << c << " options " << mask;
        return;
      }
      ++kinds[static_cast<int>(want.status)];
      if (opts.guard_with_verifier && stall_settled(inst, got)) ++settled;
    }
  }
  EXPECT_GT(kinds[0], 0);
  EXPECT_GT(kinds[1], 0);
  EXPECT_GT(kinds[2], 0);
  EXPECT_GT(settled, 0) << "no guarded stall reached its settle time";
}

TEST(GreedyDifferential, OnlyGuardedPlansAreVerified) {
  // A pure plan on a Sec. V.B instance: feasible by Alg. 2-4, rejected by
  // the exact verifier, and so not marked verified.
  util::Rng rng(1);
  net::RandomInstanceOptions io;
  io.n = 100;
  const net::UpdateInstance inst = net::random_instance(io, rng);
  GreedyOptions pure;
  pure.guard_with_verifier = false;
  const ScheduleResult plan = greedy_schedule(inst, pure);
  ASSERT_EQ(plan.status, ScheduleStatus::kFeasible);
  EXPECT_FALSE(timenet::verify_transition(inst, plan.schedule).ok());
  EXPECT_FALSE(plan.verified);

  const ScheduleResult guarded = greedy_schedule(net::fig1_instance());
  ASSERT_EQ(guarded.status, ScheduleStatus::kFeasible);
  EXPECT_TRUE(guarded.verified);
}

/// FNV-1a over status, message and every (switch, time) of the schedules.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

TEST(GreedyDifferential, PureGreedyGoldenDigestAtFig10Scale) {
  // Sec. V.B instances as bench/fig10_running_time and perfbench's
  // fig10_6k build them, planned with the Fig. 10 options.
  GreedyOptions opts;
  opts.guard_with_verifier = false;
  opts.record_steps = false;
  opts.force_complete = true;
  Digest d;
  std::int64_t steps = 0;
  for (std::uint64_t k = 0; k < 5; ++k) {
    util::Rng rng = util::Rng(0xf10).fork(k);
    net::RandomInstanceOptions io;
    io.n = k < 3 ? 1000 : 6000;
    const net::UpdateInstance inst = net::random_instance(io, rng);
    const ScheduleResult res = greedy_schedule(inst, opts);
    d.add(static_cast<std::uint64_t>(res.status));
    for (const char ch : res.message) d.add(static_cast<unsigned char>(ch));
    for (const auto& [v, t] : res.schedule.entries()) {
      d.add(v);
      d.add(static_cast<std::uint64_t>(t.count()));
    }
    steps += res.schedule.step_span();
  }
  // Recorded from the map-based implementation this one replaced.
  EXPECT_EQ(steps, 1266);
  EXPECT_EQ(d.h, 0x30b97b74b0ca2834ULL);
}

/// Folds one guarded run into `d`: status, message, schedule and every
/// greedy.* / loopcheck.* counter the call left in `reg`.
void add_guarded_run(Digest& d, const ScheduleResult& res,
                     const obs::MetricsRegistry& reg) {
  d.add(static_cast<std::uint64_t>(res.status));
  for (const char ch : res.message) d.add(static_cast<unsigned char>(ch));
  for (const auto& [v, t] : res.schedule.entries()) {
    d.add(v);
    d.add(static_cast<std::uint64_t>(t.count()));
  }
  for (const auto& [name, value] : reg.snapshot().counters) {
    if (!name.starts_with("greedy.") && !name.starts_with("loopcheck.")) {
      continue;
    }
    for (const char ch : name) d.add(static_cast<unsigned char>(ch));
    d.add(value);
  }
}

TEST(GreedyDifferential, GuardedGreedyGoldenDigest) {
  // k = 8 fat-tree reroutes between edge switches of different pods, each
  // planned with the service's options on its own idle-ledger reservation
  // (the graph a single request is planned on when nothing else is in
  // flight), then the guarded runs of the random instances above.
  const GreedyOptions service_opts = service::ServiceOptions{}.greedy;
  ASSERT_TRUE(service_opts.guard_with_verifier);
  constexpr int kPods = 8;
  const net::FatTree ft = net::fat_tree(kPods, net::Capacity{4.0});
  const service::CapacityLedger idle(ft.graph);
  Digest d;
  int unplannable = 0;
  util::Rng rng(0x9a7d);
  for (int draw = 0; draw < 400; ++draw) {
    const std::size_t pod_a = rng.index(kPods);
    std::size_t pod_b = rng.index(kPods - 1);
    if (pod_b >= pod_a) ++pod_b;
    const NodeId src = ft.edge[pod_a][rng.index(ft.edge[pod_a].size())];
    const NodeId dst = ft.edge[pod_b][rng.index(ft.edge[pod_b].size())];
    const net::Demand demand{0.5 + static_cast<double>(rng.index(17)) / 16.0};
    const auto reroute = net::random_reroute(ft.graph, src, dst, demand, rng);
    if (!reroute) continue;
    const net::UpdateInstance inst = net::UpdateInstance::from_paths(
        idle.restricted_graph(
            ft.graph, service::transition_footprint(
                          ft.graph, reroute->p_init(), reroute->p_fin(), demand)),
        reroute->p_init(), reroute->p_fin(), demand);
    obs::MetricsRegistry reg;
    ScheduleResult res;
    {
      const obs::ScopedMetrics scoped(reg);
      res = greedy_schedule(inst, service_opts);
    }
    unplannable += res.feasible() ? 0 : 1;
    add_guarded_run(d, res, reg);
  }

  util::Rng cases(0x15a7);
  for (int c = 0; c < 60; ++c) {
    const net::UpdateInstance inst = random_case(cases);
    if (inst.graph().node_count() > 40) continue;
    for (const bool force : {false, true}) {
      GreedyOptions opts;
      opts.force_complete = force;
      opts.record_steps = false;
      obs::MetricsRegistry reg;
      ScheduleResult res;
      {
        const obs::ScopedMetrics scoped(reg);
        res = greedy_schedule(inst, opts);
      }
      add_guarded_run(d, res, reg);
    }
  }
  // Recorded from the implementation that sized every window by the
  // graph-wide bound (n + 2) * max_delay and re-probed every stalled head.
  EXPECT_EQ(unplannable, 23);
  EXPECT_EQ(d.h, 0x215ed40db35a86aeULL);
}

}  // namespace
}  // namespace chronus::core
