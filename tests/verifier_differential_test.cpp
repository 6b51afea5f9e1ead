// Differential tests: the flat verifier, link_loads() and trace_class()
// against the map-based oracle (tests/verifier_oracle.hpp). Random
// instances (6-40 switches, delays 1-3, tight and slack capacities) get
// random schedules — partial ones that blackhole, colliding ones that
// loop and congest — per-packet flips and two-flow transitions. Reports
// must agree field by field (event order, exact loads, `aborted`), the
// verifier.* counters must read what the oracle counted, and every class
// must trace hop by hop as the oracle traces it. The one exception is
// verifier.classes_traced: the library traces only the classes between a
// flow's first and last update and adds the runs before and after in
// closed form, so the count is that span, never more than the oracle's.
// A golden digest pins full reports of pure Fig. 10-scale plans, whose
// load runs are far longer than the oracle cases', and a work gate bounds
// the ledger's pieces on one of them.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "obs/metrics.hpp"
#include "timenet/trajectory.hpp"
#include "timenet/verifier.hpp"
#include "verifier_oracle.hpp"

namespace chronus::timenet {
namespace {

void expect_same_report(const TransitionReport& got,
                        const TransitionReport& want) {
  ASSERT_EQ(got.congestion.size(), want.congestion.size());
  for (std::size_t i = 0; i < want.congestion.size(); ++i) {
    EXPECT_EQ(got.congestion[i].link, want.congestion[i].link) << "event " << i;
    EXPECT_EQ(got.congestion[i].enter_time, want.congestion[i].enter_time)
        << "event " << i;
    // Bit-exact: the loads are summed in the same order.
    EXPECT_EQ(got.congestion[i].load.value(), want.congestion[i].load.value())
        << "event " << i;
    EXPECT_EQ(got.congestion[i].capacity, want.congestion[i].capacity);
  }
  ASSERT_EQ(got.loops.size(), want.loops.size());
  for (std::size_t i = 0; i < want.loops.size(); ++i) {
    EXPECT_EQ(got.loops[i].injected, want.loops[i].injected);
    EXPECT_EQ(got.loops[i].node, want.loops[i].node);
  }
  ASSERT_EQ(got.blackholes.size(), want.blackholes.size());
  for (std::size_t i = 0; i < want.blackholes.size(); ++i) {
    EXPECT_EQ(got.blackholes[i].injected, want.blackholes[i].injected);
    EXPECT_EQ(got.blackholes[i].node, want.blackholes[i].node);
  }
  EXPECT_EQ(got.aborted, want.aborted);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Classes the library traces one by one: per flow, those injected in
/// [first update - old-path span, last update), or none in per-packet
/// mode, clamped to the traced window. Schedule entries for switches
/// outside the graph are ignored, as the rule table ignores them.
std::uint64_t expected_classes_traced(
    const std::vector<FlowTransition>& flows) {
  const net::Graph& g = flows.front().instance->graph();
  const oracle::Window w = oracle::make_window(g, flows);
  std::uint64_t traced = 0;
  for (const FlowTransition& f : flows) {
    if (f.per_packet_flip) continue;
    std::optional<TimePoint> first;
    std::optional<TimePoint> last;
    for (const auto& [v, t] : f.schedule->entries()) {
      if (v >= g.node_count()) continue;
      if (!first || t < *first) first = t;
      if (!last || t > *last) last = t;
    }
    if (!first) continue;
    const Trace old_path =
        oracle::trace_class(*f.instance, UpdateSchedule{}, TimePoint{0});
    const std::int64_t span = old_path.hops.back().arrival - old_path.injected;
    const TimePoint lo = std::max(*first - span, w.trace_begin);
    const TimePoint hi = std::min(*last, w.trace_end + 1);
    if (hi > lo) traced += static_cast<std::uint64_t>(hi - lo);
  }
  return traced;
}

/// Runs both verifiers on `flows` and compares reports and counters.
/// Returns the report so callers can assert the case was not vacuous.
TransitionReport check(const std::vector<FlowTransition>& flows,
                       const VerifyOptions& vo) {
  oracle::Tally tally;
  const TransitionReport want = oracle::verify_transitions(flows, vo, &tally);
  obs::MetricsRegistry reg;
  TransitionReport got;
  {
    const obs::ScopedMetrics scope(reg);
    got = verify_transitions(flows, vo);
  }
  expect_same_report(got, want);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter(snap, "verifier.calls"), 1u);
  // A pass cut short (deadline, or a first loop / blackhole) traced less.
  const bool cut_short =
      want.aborted || (vo.first_violation_only &&
                       !(want.loop_free() && want.blackhole_free()));
  if (!cut_short) {
    EXPECT_EQ(counter(snap, "verifier.classes_traced"),
              expected_classes_traced(flows));
  }
  EXPECT_LE(counter(snap, "verifier.classes_traced"), tally.classes_traced);
  EXPECT_EQ(counter(snap, "verifier.links_checked"), tally.links_checked);
  EXPECT_EQ(counter(snap, "verifier.violations"), tally.violations);
  EXPECT_EQ(counter(snap, "verifier.aborted"), tally.aborted ? 1u : 0u);
  return got;
}

void check_traces(const FlowView& view, TimePoint from, TimePoint to) {
  for (TimePoint tau = from; tau <= to; ++tau) {
    const Trace got = trace_class(view, tau);
    const Trace want = oracle::trace_class(view, tau);
    ASSERT_EQ(got.hops.size(), want.hops.size()) << "class " << tau;
    for (std::size_t i = 0; i < want.hops.size(); ++i) {
      ASSERT_EQ(got.hops[i].node, want.hops[i].node) << "class " << tau;
      ASSERT_EQ(got.hops[i].arrival, want.hops[i].arrival) << "class " << tau;
    }
    ASSERT_EQ(got.injected, want.injected);
    ASSERT_EQ(got.end, want.end) << "class " << tau;
    ASSERT_EQ(got.fault_node, want.fault_node) << "class " << tau;
    ASSERT_EQ(got.loop_node, want.loop_node) << "class " << tau;
  }
}

net::UpdateInstance random_case(util::Rng& rng) {
  net::RandomInstanceOptions opt;
  opt.n = 6 + rng.index(35);                     // 6..40 switches
  opt.slack_prob = rng.chance(0.5) ? 0.0 : 0.8;  // tight or slack links
  opt.delay_min = 1;
  opt.delay_max = 3;
  return net::random_instance(opt, rng);
}

/// Random times in [0, 5] for most switches to update: colliding times
/// loop and congest, and a switch left out keeps its old rule forever,
/// which blackholes classes at a switch that only the new path uses.
UpdateSchedule random_schedule(const net::UpdateInstance& inst,
                               util::Rng& rng) {
  UpdateSchedule sched;
  for (const net::NodeId v : inst.switches_to_update()) {
    if (rng.chance(0.85)) sched.set(v, TimePoint{rng.uniform_int(0, 5)});
  }
  return sched;
}

FlowView view_of(const net::UpdateInstance& inst, const UpdateSchedule& sched,
                 std::optional<TimePoint> flip = std::nullopt) {
  FlowView view;
  view.graph = &inst.graph();
  view.instance = &inst;
  view.schedule = &sched;
  view.per_packet_flip = flip;
  return view;
}

class VerifierVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(VerifierVsOracle, SingleFlowReportsAndLoadsMatch) {
  util::Rng rng(1100 + static_cast<std::uint64_t>(GetParam()));
  std::size_t violations = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      const TransitionReport rep_got = check({{&inst, &sched, {}}}, vo);
      violations += rep_got.congestion.size() + rep_got.loops.size() +
                    rep_got.blackholes.size();
    }
    EXPECT_EQ(link_loads(inst, sched), oracle::link_loads(inst, sched));
    const std::int64_t d =
        static_cast<std::int64_t>(inst.graph().node_count() + 2) *
        inst.graph().max_delay();
    check_traces(view_of(inst, sched), TimePoint{-d}, TimePoint{6});
  }
  EXPECT_GT(violations, 0u) << "no case exercised a violation";
}

TEST_P(VerifierVsOracle, PerPacketFlipReportsMatch) {
  util::Rng rng(1200 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    const TimePoint flip{rng.uniform_int(0, 5)};
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &sched, flip}}, vo);
    }
    check_traces(view_of(inst, sched, flip), flip - 4, flip + 4);
  }
}

TEST_P(VerifierVsOracle, TwoFlowReportsMatch) {
  util::Rng rng(1300 + static_cast<std::uint64_t>(GetParam()));
  int compared = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const auto base = random_case(rng);
    // A sibling flow over the same graph in the reverse direction of the
    // update (p_fin -> p_init), so the two flows cross on shared links.
    if (!net::path_exists_in(base.graph(), base.p_fin())) continue;
    const auto sibling = net::UpdateInstance::from_paths(
        base.graph(), base.p_fin(), base.p_init(), base.demand());
    const UpdateSchedule s0 = random_schedule(base, rng);
    const UpdateSchedule s1 = random_schedule(sibling, rng);
    std::optional<TimePoint> flip;
    if (rng.chance(0.3)) flip = TimePoint{rng.uniform_int(0, 5)};
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&base, &s0, {}}, {&sibling, &s1, flip}}, vo);
    }
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

// The edges of the closed-form runs: schedule entries that move the
// window without moving a rule, a flow that never updates beside one that
// does, and flips outside the schedule's span.
TEST_P(VerifierVsOracle, ClosedFormRunEdgesMatch) {
  util::Rng rng(1800 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    const auto n = static_cast<net::NodeId>(inst.graph().node_count());

    // Entries for switches outside the graph and for switches whose rule
    // never changes, at times outside [0, 5].
    UpdateSchedule stray = sched;
    stray.set(n + 3, TimePoint{rng.uniform_int(-30, -10)});
    stray.set(n + 7, TimePoint{rng.uniform_int(12, 30)});
    for (net::NodeId v = 0; v < n; ++v) {
      if (!inst.needs_update(v) && rng.chance(0.2)) {
        stray.set(v, TimePoint{rng.uniform_int(-8, 14)});
      }
    }
    // Flips well before and well after the schedule's span.
    const TimePoint early{rng.uniform_int(-20, -1)};
    const TimePoint late{rng.uniform_int(6, 25)};

    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &stray, late}}, vo);
      check({{&inst, &sched, {}}}, vo);
      check({{&inst, &stray, {}}}, vo);
      check({{&inst, &sched, early}}, vo);
      check({{&inst, &sched, late}}, vo);
    }
    EXPECT_EQ(link_loads(inst, stray), oracle::link_loads(inst, stray));

    // Two flows, one of which never updates: its whole window is one run.
    if (!net::path_exists_in(inst.graph(), inst.p_fin())) continue;
    const auto sibling = net::UpdateInstance::from_paths(
        inst.graph(), inst.p_fin(), inst.p_init(), inst.demand());
    const UpdateSchedule none;
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &sched, {}}, {&sibling, &none, {}}}, vo);
      check({{&sibling, &none, {}}, {&inst, &stray, {}}}, vo);
      check({{&inst, &none, {}}, {&sibling, &none, {}}}, vo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierVsOracle, ::testing::Range(0, 8));

TEST(VerifierVsOracleT, GreedyPlansCheckEveryLinkAlike) {
  // Clean plans report nothing, so the congestion scan's links_checked
  // count is the whole comparison: every entered (link, step) in the
  // evaluation window, in the same order.
  util::Rng rng(1400);
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    UpdateSchedule sched;
    TimePoint t{};
    for (const net::NodeId v : inst.switches_to_update()) {
      sched.set(v, t);
      t += inst.graph().max_delay() * 2;
    }
    check({{&inst, &sched, {}}}, VerifyOptions{});
  }
}

/// `inst`'s paths and demand over a copy of its graph whose link ids run
/// backwards, so the links a flow enters first tend to have the highest
/// ids.
net::UpdateInstance with_reversed_link_ids(const net::UpdateInstance& inst) {
  const net::Graph& g = inst.graph();
  net::Graph rev;
  rev.add_nodes(g.node_count());
  for (net::LinkId id = static_cast<net::LinkId>(g.link_count()); id-- > 0;) {
    const net::Link& l = g.link(id);
    rev.add_link(l.src, l.dst, l.capacity, l.delay);
  }
  return net::UpdateInstance::from_paths(std::move(rev), inst.p_init(),
                                         inst.p_fin(), inst.demand());
}

// The congestion pass scans only the links the flows loaded, sorted by
// id, not in the order they were first loaded. Reports stay link-major
// and first_violation_only stops at the oracle's event.
TEST(VerifierVsOracleT, CongestionIsLinkAscendingWhateverTheLoadOrder) {
  // 0 -> 1 -> 2 -> 3 moves to 0 -> 2 -> 3. The first class traced enters
  // the source's old link first, and it has the highest id; every link
  // is over-subscribed.
  net::Graph g;
  g.add_nodes(4);
  g.add_link(2, 3, net::Capacity{0.5}, 1);  // 0
  g.add_link(1, 2, net::Capacity{0.5}, 1);  // 1
  g.add_link(0, 2, net::Capacity{0.5}, 2);  // 2
  g.add_link(0, 1, net::Capacity{0.5}, 1);  // 3
  const auto inst = net::UpdateInstance::from_paths(
      std::move(g), {0, 1, 2, 3}, {0, 2, 3}, net::Demand{1.0});
  UpdateSchedule sched;
  sched.set(0, TimePoint{0});
  const TransitionReport all = check({{&inst, &sched, {}}}, VerifyOptions{});
  ASSERT_FALSE(all.congestion.empty());
  EXPECT_EQ(all.congestion.front().link, 0u);
  EXPECT_EQ(all.congestion.back().link, 3u);
  for (std::size_t i = 1; i < all.congestion.size(); ++i) {
    EXPECT_LE(all.congestion[i - 1].link, all.congestion[i].link);
  }
  VerifyOptions first_only;
  first_only.first_violation_only = true;
  const TransitionReport first = check({{&inst, &sched, {}}}, first_only);
  ASSERT_EQ(first.congestion.size(), 1u);
  EXPECT_EQ(first.congestion.front().link, 0u);

  // Random cases with their link ids reversed.
  util::Rng rng(1600);
  std::size_t congested = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const auto rev = with_reversed_link_ids(random_case(rng));
    const UpdateSchedule rs = random_schedule(rev, rng);
    for (const bool only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = only;
      congested += check({{&rev, &rs, {}}}, vo).congestion.size();
    }
  }
  EXPECT_GT(congested, 0u) << "no reversed case congested";
}

TEST(VerifierVsOracleT, ExpiredDeadlineAbortsAtTheSameClass) {
  util::Rng rng(1500);
  const auto inst = random_case(rng);
  const UpdateSchedule sched = random_schedule(inst, rng);
  VerifyOptions vo;
  vo.deadline_sec = 1e-9;  // expired by the first check (every 256 classes)
  const TransitionReport rep = check({{&inst, &sched, {}}}, vo);
  EXPECT_TRUE(rep.aborted);
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(TimePoint t) { add(static_cast<std::uint64_t>(t.count())); }
  void add_bits(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

/// Every field of `rep`: each congestion event with its exact load and
/// capacity, each loop and blackhole, and `aborted`.
void add_report(Digest& d, const TransitionReport& rep) {
  d.add(rep.congestion.size());
  for (const CongestionEvent& c : rep.congestion) {
    d.add(c.link);
    d.add(c.enter_time);
    d.add_bits(c.load.value());
    d.add_bits(c.capacity.value());
  }
  d.add(rep.loops.size());
  for (const LoopEvent& e : rep.loops) {
    d.add(e.injected);
    d.add(e.node);
  }
  d.add(rep.blackholes.size());
  for (const BlackholeEvent& e : rep.blackholes) {
    d.add(e.injected);
    d.add(e.node);
  }
  d.add(static_cast<std::uint64_t>(rep.aborted));
}

/// The pure greedy plan (guard off, force_complete) of a Sec. V.B
/// instance drawn from Rng(seed).fork(0).
struct PurePlan {
  net::UpdateInstance inst;
  UpdateSchedule sched;
};
PurePlan pure_plan(std::size_t n, std::uint64_t seed) {
  util::Rng rng = util::Rng(seed).fork(0);
  net::RandomInstanceOptions io;
  io.n = n;
  net::UpdateInstance inst = net::random_instance(io, rng);
  core::GreedyOptions opts;
  opts.guard_with_verifier = false;
  opts.record_steps = false;
  opts.force_complete = true;
  UpdateSchedule sched = core::greedy_schedule(inst, opts).schedule;
  return {std::move(inst), std::move(sched)};
}

// Pure plans at Fig. 10 scale congest thousands of cells and loop, and
// their transitional classes build per-link load runs far longer than the
// oracle cases above ever do. The digest pins every report field, and the
// per-cell loads of the n = 100 plans.
TEST(VerifierDifferential, PureFig10PlansGoldenDigest) {
  Digest d;
  std::size_t events = 0;
  for (const std::size_t n : {100, 250, 500, 1000}) {
    for (const std::uint64_t seed : {1, 2}) {
      const PurePlan plan = pure_plan(n, seed);
      const TransitionReport rep = verify_transition(plan.inst, plan.sched);
      add_report(d, rep);
      events += rep.congestion.size() + rep.loops.size();
      if (n != 100) continue;
      for (const auto& [key, load] : link_loads(plan.inst, plan.sched)) {
        d.add(key.first);
        d.add(key.second);
        d.add_bits(load.value());
      }
    }
  }
  // Recorded by building this test against the verifier's dense-band
  // ledger, before the per-link run ledger replaced it.
  EXPECT_EQ(events, 107999u);
  EXPECT_EQ(d.h, 0x82d253d3e1fc5ccfULL);
}

// The verifier's loads are runs of class counts: the pure n = 1 000 plan
// traces 2 196 classes whose hops enter 1 301 842 (link, step) cells, yet
// they coalesce into under 20 000 pieces. Per-hop or dense storage would
// hold every cell.
TEST(VerifierDifferential, LoadPiecesStayFewAtFig10Scale) {
  const PurePlan plan = pure_plan(1000, 1);
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    EXPECT_FALSE(verify_transition(plan.inst, plan.sched).ok());
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter(snap, "verifier.classes_traced"), 2196u);
  EXPECT_GT(counter(snap, "verifier.load_pieces"), 0u);
  EXPECT_LE(counter(snap, "verifier.load_pieces"), 50000u);
}

}  // namespace
}  // namespace chronus::timenet
