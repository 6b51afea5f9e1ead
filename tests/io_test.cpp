// Tests for the instance/schedule text formats and the DOT exporters.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "io/dot.hpp"
#include "core/multi_flow.hpp"
#include "io/instance_io.hpp"
#include "io/trace_io.hpp"
#include "net/generators.hpp"

namespace chronus::io {
namespace {

TEST(InstanceIo, ParsesAMinimalInstance) {
  std::istringstream in(R"(# a three-switch reroute
link a b cap=1 delay=1
link b c cap=1 delay=2
link a c cap=2 delay=3
demand 1.5
init a b c
fin a c
)");
  const auto inst = read_instance(in);
  EXPECT_EQ(inst.graph().node_count(), 3u);
  EXPECT_EQ(inst.graph().link_count(), 3u);
  EXPECT_DOUBLE_EQ(inst.demand().value(), 1.5);
  EXPECT_EQ(inst.p_init().size(), 3u);
  EXPECT_EQ(inst.p_fin().size(), 2u);
  EXPECT_EQ(inst.graph().delay(0, 2), 3);
}

TEST(InstanceIo, ParsesRedirects) {
  std::istringstream in(R"(
link a b cap=1 delay=1
link b c cap=1 delay=1
link a c cap=1 delay=1
link b a cap=1 delay=1
init a b c
fin a c
redirect b a
)");
  const auto inst = read_instance(in);
  EXPECT_EQ(inst.new_next(1), std::optional<net::NodeId>(0));
  EXPECT_TRUE(inst.needs_update(1));
}

TEST(InstanceIo, RoundTripsFig1) {
  const auto inst = net::fig1_instance();
  std::ostringstream out;
  write_instance(out, inst);
  std::istringstream in(out.str());
  const auto again = read_instance(in);
  EXPECT_EQ(again.graph().node_count(), inst.graph().node_count());
  EXPECT_EQ(again.graph().link_count(), inst.graph().link_count());
  EXPECT_EQ(again.p_init().size(), inst.p_init().size());
  EXPECT_EQ(again.p_fin().size(), inst.p_fin().size());
  // The v5 -> v2 redirect survives the round trip.
  EXPECT_EQ(again.new_next(4), std::optional<net::NodeId>(1));
  // And the round-tripped instance schedules identically.
  EXPECT_EQ(core::greedy_schedule(again).schedule,
            core::greedy_schedule(inst).schedule);
}

TEST(InstanceIo, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      read_instance(in);
      FAIL() << "expected an error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("frobnicate a b\n", "unknown directive");
  expect_error("link a\n", "two endpoints");
  expect_error("link a b cap=x\n", "bad number");
  expect_error("link a b speed=1\n", "unknown link attribute");
  expect_error("link a b\ninit a\n", "at least two");
  expect_error("link a b\ninit a b\ninit a b\n", "given twice");
}

TEST(TraceIo, ArrivalBeyondTheServiceHorizonIsALineError) {
  const std::string links =
      "link s m cap=2 delay=1\nlink m t cap=2 delay=1\n"
      "link s b cap=2 delay=1\nlink b t cap=2 delay=1\n";
  std::istringstream at_horizon(links + "request 1 arrival=" +
                                std::to_string(service::kMaxArrival) +
                                " demand=1 init s m t fin s b t\n");
  EXPECT_EQ(read_trace(at_horizon).requests.at(0).arrival,
            service::kMaxArrival);
  std::istringstream past(links +
                          "request 1 arrival=9223372036854775807 demand=1 "
                          "init s m t fin s b t\n");
  try {
    read_trace(past);
    FAIL() << "accepted an arrival past the horizon";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5: arrival beyond"),
              std::string::npos)
        << e.what();
  }
}

TEST(InstanceIo, MissingPathsRejected) {
  std::istringstream in("link a b cap=1 delay=1\n");
  EXPECT_THROW(read_instance(in), std::runtime_error);
}

TEST(ScheduleIo, RoundTrips) {
  const auto inst = net::fig1_instance();
  const auto plan = core::greedy_schedule(inst);
  std::ostringstream out;
  write_schedule(out, inst, plan.schedule);
  std::istringstream in(out.str());
  const auto again = read_schedule(in, inst);
  EXPECT_EQ(again, plan.schedule);
}

TEST(ScheduleIo, UnknownSwitchRejected) {
  const auto inst = net::fig1_instance();
  std::istringstream in("update nosuch 3\n");
  EXPECT_THROW(read_schedule(in, inst), std::runtime_error);
}

TEST(Dot, GraphExportContainsLinks) {
  const auto g = net::line_topology(3, net::Capacity{2.0}, 1);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"v1\" -> \"v2\""), std::string::npos);
  EXPECT_NE(dot.find("2/1"), std::string::npos);
}

TEST(Dot, InstanceExportStylesPaths) {
  const auto inst = net::fig1_instance();
  const std::string dot = to_dot(inst);
  // Old-path links solid bold, final-configuration links dashed.
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  // The redirect v5 -> v2 is part of the final configuration.
  EXPECT_NE(dot.find("\"v5\" -> \"v2\""), std::string::npos);
}

TEST(Dot, ScheduleAnnotatesNodes) {
  const auto inst = net::fig1_instance();
  const auto plan = core::greedy_schedule(inst);
  const std::string dot = to_dot(inst, &plan.schedule);
  EXPECT_NE(dot.find("v2\\n@t0"), std::string::npos);
  EXPECT_NE(dot.find("v5\\n@t3"), std::string::npos);
}

TEST(Dot, DependencyChainsRender) {
  const auto inst = net::fig1_instance();
  std::set<net::NodeId> pending{0, 1, 2, 3, 4};
  const auto deps = core::find_dependencies(inst, {}, pending);
  const std::string dot = to_dot(inst.graph(), deps);
  EXPECT_NE(dot.find("precedes"), std::string::npos);
  EXPECT_NE(dot.find("\"v3\" -> \"v1\""), std::string::npos);
}

TEST(InstanceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "chronus_fig1.inst";
  {
    std::ofstream out(path);
    write_instance(out, net::fig1_instance());
  }
  const auto inst = read_instance_file(path);
  EXPECT_EQ(inst.graph().node_count(), 6u);
  const auto flows = read_flows_file(path);
  EXPECT_EQ(flows.size(), 1u);
  std::remove(path.c_str());
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(read_instance_file("/no/such/chronus.inst"),
               std::runtime_error);
  EXPECT_THROW(read_flows_file("/no/such/chronus.inst"), std::runtime_error);
}

TEST(FlowsIo, ParsesMultipleFlowsOverOneGraph) {
  std::istringstream in(R"(
link s0 m cap=2 delay=1
link s1 m cap=2 delay=1
link m t cap=2 delay=1
link s0 b cap=2 delay=1
link b t cap=2 delay=1
flow f0 demand=1
init s0 m t
fin s0 b t
flow f1 demand=0.5
init s1 m t
fin s1 m t
)");
  const auto flows = read_flows(in);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].demand().value(), 1.0);
  EXPECT_DOUBLE_EQ(flows[1].demand().value(), 0.5);
  EXPECT_EQ(flows[0].graph().link_count(), flows[1].graph().link_count());
  // The parsed flows drive the multi-flow schedulers directly.
  const auto res = core::schedule_flows_jointly(flows);
  EXPECT_TRUE(res.feasible()) << res.message;
}

TEST(FlowsIo, SingleFlowFilesYieldOneInstance) {
  std::istringstream in(R"(
link a b cap=1 delay=1
link a c cap=1 delay=1
link c b cap=1 delay=1
init a b
fin a c b
)");
  const auto flows = read_flows(in);
  ASSERT_EQ(flows.size(), 1u);
}

TEST(FlowsIo, ReadInstanceRejectsMultiFlowFiles) {
  std::istringstream in(R"(
link a b cap=1 delay=1
flow f0
init a b
fin a b
flow f1
init a b
fin a b
)");
  EXPECT_THROW(read_instance(in), std::runtime_error);
}

TEST(FlowsIo, FlowMissingPathsRejected) {
  std::istringstream in(R"(
link a b cap=1 delay=1
flow f0
init a b
)");
  try {
    read_flows(in);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("flow f0"), std::string::npos);
  }
}

TEST(FlowsIo, ParserSurvivesGarbage) {
  // Fuzz-ish: random byte soup must throw cleanly, never crash.
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.uniform_int(0, 120));
    for (int c = 0; c < len; ++c) {
      const char alphabet[] = "abc =.#\n0123456789linkfowdemandinitredirect";
      soup += alphabet[rng.index(sizeof(alphabet) - 1)];
    }
    std::istringstream in(soup);
    try {
      read_flows(in);  // may succeed on degenerate-but-valid soup
    } catch (const std::exception&) {
      // fine: rejected with a typed error
    }
  }
}

}  // namespace
}  // namespace chronus::io
