// Unit tests for the net substrate: graph, paths, update instances and
// generators (including the paper's Fig. 1 example instance).
#include <gtest/gtest.h>

#include "net/generators.hpp"
#include "net/graph.hpp"
#include "net/instance.hpp"
#include "net/path.hpp"

namespace chronus::net {
namespace {

Graph small_graph() {
  Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 1);
  g.add_link(1, 2, net::Capacity{2.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 3);
  g.add_link(0, 2, net::Capacity{1.5}, 1);
  return g;
}

TEST(Graph, NodeAndLinkCounts) {
  const Graph g = small_graph();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.link_count(), 4u);
}

TEST(Graph, AutoNamesAreOneBased) {
  Graph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node("core");
  EXPECT_EQ(g.name(a), "v1");
  EXPECT_EQ(g.name(b), "core");
}

TEST(Graph, FindLink) {
  const Graph g = small_graph();
  EXPECT_TRUE(g.has_link(0, 1));
  EXPECT_FALSE(g.has_link(1, 0));
  EXPECT_FALSE(g.has_link(3, 0));
}

TEST(Graph, CapacityAndDelayAccessors) {
  const Graph g = small_graph();
  EXPECT_DOUBLE_EQ(g.capacity(1, 2).value(), 2.0);
  EXPECT_EQ(g.delay(2, 3), 3);
  EXPECT_THROW(g.capacity(3, 0), std::invalid_argument);
}

TEST(Graph, AdjacencyLists) {
  const Graph g = small_graph();
  EXPECT_EQ(g.out_links(0).size(), 2u);
  EXPECT_EQ(g.in_links(2).size(), 2u);
  EXPECT_EQ(g.out_links(3).size(), 0u);
}

TEST(Graph, MaxDelay) {
  const Graph g = small_graph();
  EXPECT_EQ(g.max_delay(), 3);
  EXPECT_EQ(Graph{}.max_delay(), 1);
}

TEST(Graph, RejectsInvalidLinks) {
  Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_link(0, 0, net::Capacity{1.0}, 1), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_link(0, 1, net::Capacity{0.0}, 1), std::invalid_argument);  // no capacity
  EXPECT_THROW(g.add_link(0, 1, net::Capacity{1.0}, 0), std::invalid_argument);  // zero delay
  EXPECT_THROW(g.add_link(0, 5, net::Capacity{1.0}, 1), std::out_of_range);      // bad node
  g.add_link(0, 1, net::Capacity{1.0}, 1);
  EXPECT_THROW(g.add_link(0, 1, net::Capacity{2.0}, 1), std::invalid_argument);  // duplicate
}

TEST(Path, BasicAccessors) {
  const Path p{0, 1, 2, 3};
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 3u);
  EXPECT_TRUE(p.contains(2));
  EXPECT_FALSE(p.contains(9));
  EXPECT_EQ(p.index_of(2), 2u);
  EXPECT_EQ(p.index_of(9), Path::npos);
}

TEST(Path, NextAndPrevHop) {
  const Path p{0, 1, 2};
  EXPECT_EQ(p.next_hop(0), 1u);
  EXPECT_EQ(p.next_hop(2), kInvalidNode);
  EXPECT_EQ(p.next_hop(7), kInvalidNode);
  EXPECT_EQ(p.prev_hop(2), 1u);
  EXPECT_EQ(p.prev_hop(0), kInvalidNode);
}

TEST(Path, Simplicity) {
  EXPECT_TRUE((Path{0, 1, 2}).is_simple());
  EXPECT_FALSE((Path{0, 1, 0}).is_simple());
}

TEST(Path, SuffixFrom) {
  const Path p{0, 1, 2, 3};
  EXPECT_EQ(p.suffix_from(2), (Path{2, 3}));
  EXPECT_TRUE(p.suffix_from(9).empty());
}

TEST(Path, DelayAndLinks) {
  const Graph g = small_graph();
  const Path p{0, 1, 2, 3};
  EXPECT_EQ(path_delay(g, p), 6);
  EXPECT_EQ(path_links(g, p).size(), 3u);
  EXPECT_TRUE(path_exists_in(g, p));
  EXPECT_FALSE(path_exists_in(g, Path{0, 3}));
  EXPECT_THROW(path_links(g, Path{0, 3}), std::invalid_argument);
}

TEST(Path, MinCapacity) {
  const Graph g = small_graph();
  EXPECT_DOUBLE_EQ(path_min_capacity(g, Path{0, 1, 2}).value(), 1.0);
  EXPECT_THROW(path_min_capacity(g, Path{0}), std::invalid_argument);
}

TEST(Path, ToString) {
  const Graph g = small_graph();
  EXPECT_EQ(to_string(g, Path{0, 1}), "v1 -> v2");
}

TEST(UpdateInstance, FromPathsValidation) {
  Graph g = small_graph();
  EXPECT_NO_THROW(
      UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{1.0}));
  // Different destinations.
  EXPECT_THROW(
      UpdateInstance::from_paths(g, Path{0, 1, 2}, Path{0, 2, 3}, net::Demand{1.0}),
      std::invalid_argument);
  // Non-positive demand.
  EXPECT_THROW(
      UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{0.0}),
      std::invalid_argument);
  // Missing link.
  EXPECT_THROW(
      UpdateInstance::from_paths(g, Path{0, 3}, Path{0, 2, 3}, net::Demand{1.0}),
      std::invalid_argument);
}

TEST(UpdateInstance, NextHopFunctions) {
  const auto inst = UpdateInstance::from_paths(small_graph(), Path{0, 1, 2, 3},
                                               Path{0, 2, 3}, net::Demand{1.0});
  EXPECT_EQ(inst.old_next(0), std::optional<NodeId>(1));
  EXPECT_EQ(inst.new_next(0), std::optional<NodeId>(2));
  EXPECT_EQ(inst.old_next(1), std::optional<NodeId>(2));
  // Node 1 is only on the old path: its rule is kept.
  EXPECT_EQ(inst.new_next(1), std::optional<NodeId>(2));
  EXPECT_FALSE(inst.needs_update(1));
  EXPECT_FALSE(inst.old_next(3).has_value());
}

TEST(UpdateInstance, SwitchesToUpdate) {
  const auto inst = UpdateInstance::from_paths(small_graph(), Path{0, 1, 2, 3},
                                               Path{0, 2, 3}, net::Demand{1.0});
  // Only the source changes its next hop (2 -> 3 is shared by both paths).
  EXPECT_EQ(inst.switches_to_update(), std::vector<NodeId>{0});
}

TEST(UpdateInstance, RedirectRules) {
  auto inst = UpdateInstance::from_paths(small_graph(), Path{0, 1, 2, 3},
                                         Path{0, 2, 3}, net::Demand{1.0});
  inst.set_new_next(1, 2);  // same as old: still no update needed
  EXPECT_FALSE(inst.needs_update(1));
  EXPECT_THROW(inst.set_new_next(1, 0), std::invalid_argument);  // no link
}

TEST(UpdateInstance, TouchedNodes) {
  const auto inst = UpdateInstance::from_paths(small_graph(), Path{0, 1, 2, 3},
                                               Path{0, 2, 3}, net::Demand{1.0});
  EXPECT_EQ(inst.touched_nodes(), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(UpdateInstance, WithGraphReplacesCapacities) {
  const auto inst = UpdateInstance::from_paths(small_graph(), Path{0, 1, 2, 3},
                                               Path{0, 2, 3}, net::Demand{1.0});
  Graph g2 = small_graph();
  g2.set_capacity(0, net::Capacity{9.0});
  const auto inst2 = inst.with_graph(g2);
  EXPECT_DOUBLE_EQ(inst2.graph().link(0).capacity.value(), 9.0);
  EXPECT_EQ(inst2.p_init(), inst.p_init());
  EXPECT_THROW(inst.with_graph(Graph{}), std::invalid_argument);
}

TEST(Fig1, MatchesThePaper) {
  const auto inst = fig1_instance();
  const Graph& g = inst.graph();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(inst.p_init(), (Path{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(inst.p_fin(), (Path{0, 3, 2, 1, 5}));
  EXPECT_DOUBLE_EQ(inst.demand().value(), 1.0);
  // v5's redirect rule points to v2 (the paper's dashed link).
  EXPECT_EQ(inst.new_next(4), std::optional<NodeId>(1));
  // All of v1..v5 need updates; v6 (destination) does not.
  EXPECT_EQ(inst.switches_to_update(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  // Unit capacities and delays.
  for (LinkId id = 0; id < g.link_count(); ++id) {
    EXPECT_DOUBLE_EQ(g.link(id).capacity.value(), 1.0);
    EXPECT_EQ(g.link(id).delay, 1);
  }
}

TEST(LineTopology, Shape) {
  const Graph g = line_topology(5, net::Capacity{2.0}, 3);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.link_count(), 4u);
  EXPECT_TRUE(g.has_link(0, 1));
  EXPECT_FALSE(g.has_link(1, 0));
  EXPECT_THROW(line_topology(1, net::Capacity{1.0}, 1), std::invalid_argument);
}

TEST(RandomInstance, WellFormed) {
  util::Rng rng(101);
  RandomInstanceOptions opt;
  opt.n = 12;
  for (int i = 0; i < 50; ++i) {
    const auto inst = random_instance(opt, rng);
    EXPECT_EQ(inst.graph().node_count(), 12u);
    EXPECT_EQ(inst.p_init().size(), 12u);
    EXPECT_TRUE(inst.p_init().is_simple());
    EXPECT_TRUE(inst.p_fin().is_simple());
    EXPECT_EQ(inst.p_init().front(), inst.p_fin().front());
    EXPECT_EQ(inst.p_init().back(), inst.p_fin().back());
    EXPECT_TRUE(path_exists_in(inst.graph(), inst.p_fin()));
  }
}

TEST(RandomInstance, DelaysWithinRange) {
  util::Rng rng(102);
  RandomInstanceOptions opt;
  opt.n = 10;
  opt.delay_min = 2;
  opt.delay_max = 4;
  const auto inst = random_instance(opt, rng);
  const Graph& g = inst.graph();
  for (LinkId id = 0; id < g.link_count(); ++id) {
    EXPECT_GE(g.link(id).delay, 2);
    EXPECT_LE(g.link(id).delay, 4);
  }
}

TEST(RandomInstance, CapacitiesAreTightOrSlack) {
  util::Rng rng(103);
  RandomInstanceOptions opt;
  opt.n = 10;
  opt.demand = net::Demand{3.0};
  const auto inst = random_instance(opt, rng);
  const Graph& g = inst.graph();
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const double c = g.link(id).capacity.value();
    EXPECT_TRUE(c == 3.0 || c == 6.0) << c;
  }
}

TEST(RandomInstance, RespectsMinimumSize) {
  util::Rng rng(104);
  RandomInstanceOptions opt;
  opt.n = 3;
  EXPECT_THROW(random_instance(opt, rng), std::invalid_argument);
}

TEST(RandomInstance, DeterministicPerSeed) {
  RandomInstanceOptions opt;
  opt.n = 8;
  util::Rng a(7), b(7);
  const auto ia = random_instance(opt, a);
  const auto ib = random_instance(opt, b);
  EXPECT_EQ(ia.p_fin(), ib.p_fin());
  EXPECT_EQ(ia.graph().link_count(), ib.graph().link_count());
}

TEST(WanTopology, Bidirectional) {
  const Graph g = wan_topology(net::Capacity{10.0});
  EXPECT_EQ(g.node_count(), 11u);
  EXPECT_EQ(g.link_count(), 28u);
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const Link& l = g.link(id);
    EXPECT_TRUE(g.has_link(l.dst, l.src));
  }
}

}  // namespace
}  // namespace chronus::net
