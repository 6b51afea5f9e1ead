// Tests for the instance/schedule/trace text formats, the DOT exporters,
// and the error contract every text reader keeps on seeded mutants of its
// inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "io/dot.hpp"
#include "core/multi_flow.hpp"
#include "io/instance_io.hpp"
#include "io/scenario_io.hpp"
#include "io/trace_io.hpp"
#include "net/generators.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

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

/// The runtime_error text of reading `text` with `read`; fails the test
/// when `read` accepts it or throws anything else.
template <typename Read>
std::string line_error(Read read, const std::string& text) {
  std::istringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a line error (" << e.what() << "): " << text;
  }
  return "";
}

TEST(TraceIo, NumbersAreReadInFull) {
  const auto trace_error = [](const std::string& request) {
    return line_error([](std::istream& in) { return read_trace(in); },
                      "link s m cap=2 delay=1\nlink m t cap=2 delay=1\n"
                      "link s b cap=2 delay=1\nlink b t cap=2 delay=1\n" +
                          request + " init s m t fin s b t\n");
  };
  // Silent truncation, wrap-around and NaN/inf, before: arrival 3, 0,
  // delay 2, priority 7, id 2^64-1; NaN and inf demands and a negative
  // deadline were accepted; 1e999 and a 20-digit delay escaped as a bare
  // std::out_of_range.
  EXPECT_EQ(trace_error("request 1 arrival=3e4 demand=1"),
            "line 5: bad number in: arrival=3e4");
  EXPECT_EQ(trace_error("request 1 arrival=0x10 demand=1"),
            "line 5: bad number in: arrival=0x10");
  EXPECT_EQ(trace_error("request 1 priority=7x"),
            "line 5: bad number in: priority=7x");
  EXPECT_EQ(trace_error("request -1"), "line 5: bad number in: -1");
  EXPECT_EQ(trace_error("request 1 demand=nan"),
            "line 5: bad number in: demand=nan");
  EXPECT_EQ(trace_error("request 1 demand=inf"),
            "line 5: bad number in: demand=inf");
  EXPECT_EQ(trace_error("request 1 demand=1e999"),
            "line 5: bad number in: demand=1e999");
  EXPECT_EQ(trace_error("request 1 deadline=-1"),
            "line 5: deadline must be >= 0");
  EXPECT_EQ(trace_error("link s t cap=7x\nrequest 1"),
            "line 5: bad number in: cap=7x");
  EXPECT_EQ(trace_error("link s t delay=2.5\nrequest 1"),
            "line 5: bad number in: delay=2.5");
  EXPECT_EQ(trace_error("link s t delay=99999999999999999999\nrequest 1"),
            "line 5: bad number in: delay=99999999999999999999");
  EXPECT_EQ(trace_error("link s t cap=nan\nrequest 1"),
            "line 5: bad number in: cap=nan");
  EXPECT_EQ(trace_error("link s t cap=-0\nrequest 1"),
            "line 5: link capacity must be positive");
}

TEST(InstanceIo, NumbersAreReadInFull) {
  const auto instance_error = [](const std::string& text) {
    return line_error([](std::istream& in) { return read_instance(in); },
                      text);
  };
  EXPECT_EQ(instance_error("link a b cap=7x\n"),
            "line 1: bad number in: cap=7x");
  EXPECT_EQ(instance_error("link a b cap=nan\n"),
            "line 1: bad number in: cap=nan");
  EXPECT_EQ(instance_error("link a b delay=2.5\n"),
            "line 1: bad number in: delay=2.5");
  EXPECT_EQ(instance_error("link a b\ndemand 1e999\n"),
            "line 2: bad number in: 1e999");
  EXPECT_EQ(instance_error("link a b\ndemand 2x\n"),
            "line 2: bad number in: 2x");
  EXPECT_EQ(instance_error("link a b\nflow f0 demand=inf\n"),
            "line 2: bad number in: demand=inf");
  // from_paths' own checks name the flow instead of escaping as
  // std::invalid_argument.
  EXPECT_EQ(instance_error("link a b\nlink c b\nflow f0\ninit a b\n"
                           "fin c b\n"),
            "flow f0: paths must share source and destination");
  EXPECT_EQ(instance_error("link a b\ninit a b\nfin a b\nredirect a c\n"),
            "the flow: redirect rule over missing link");
  EXPECT_EQ(instance_error("link a b\nlink b a\ninit a b\nfin a b\n"
                           "demand 0\n"),
            "the flow: demand must be positive");
}

TEST(ScheduleIo, TimesAreReadInFull) {
  const auto inst = net::fig1_instance();
  const auto schedule_error = [&inst](const std::string& text) {
    return line_error(
        [&inst](std::istream& in) { return read_schedule(in, inst); }, text);
  };
  EXPECT_EQ(schedule_error("update v2 0\nupdate v3 3e4\n"),
            "line 2: bad number in: 3e4");
  EXPECT_EQ(schedule_error("update v2 1.5\n"), "line 1: bad number in: 1.5");
  EXPECT_EQ(schedule_error("update v2\n"),
            "line 1: update needs <switch> <time>");
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

// --- Seeded mutants of every reader's input.

enum class Reader { kTrace, kScenario, kInstance, kFlows, kSchedule };

struct MutantSeed {
  Reader reader;
  std::string text;
};

std::string testdata(const std::string& name) {
  std::ifstream in(std::string(CHRONUS_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One mutation: a bit flip, an inserted byte, a deleted run, a
/// truncation, a deleted or duplicated line, or one number rewritten to a
/// token the strict parser must refuse (or, for "0" and "-0", accept).
std::string mutate(std::string s, util::Rng& rng) {
  static const char* const kOdd[] = {
      "3e4", "0x10",  "-1",   "nan",  "inf",  "1e999",
      "99999999999999999999", "2.5",  "7x",   "",     "-0",
      "+1",  "18446744073709551616", "4294967296", "0", "1e-320"};
  static const char kBytes[] = "0123456789 =.#-\nexs";
  if (s.empty()) return std::string(1, kBytes[rng.index(sizeof(kBytes) - 1)]);
  const std::size_t at = rng.index(s.size());
  const auto line_bounds = [&s](std::size_t pos) {
    const std::size_t begin = s.rfind('\n', pos) == std::string::npos
                                  ? 0
                                  : s.rfind('\n', pos) + 1;
    const std::size_t nl = s.find('\n', pos);
    return std::pair{begin, nl == std::string::npos ? s.size() : nl + 1};
  };
  switch (rng.uniform_int(0, 6)) {
    case 0:
      s[at] = static_cast<char>(s[at] ^ (1 << rng.index(8)));
      break;
    case 1:
      s.insert(at, 1, kBytes[rng.index(sizeof(kBytes) - 1)]);
      break;
    case 2:
      s.erase(at, 1 + rng.index(8));
      break;
    case 3:
      s.resize(at);
      break;
    case 4: {
      const auto [begin, end] = line_bounds(at);
      s.erase(begin, end - begin);
      break;
    }
    case 5: {
      const auto [begin, end] = line_bounds(at);
      s.insert(begin, s.substr(begin, end - begin));
      break;
    }
    default: {
      const std::size_t digit = s.find_first_of("0123456789", at);
      if (digit == std::string::npos) break;
      const std::size_t end = s.find_first_not_of("0123456789.", digit);
      s.replace(digit, (end == std::string::npos ? s.size() : end) - digit,
                kOdd[rng.index(std::size(kOdd))]);
      break;
    }
  }
  return s;
}

TEST(IoReaders, SeededMutantsKeepTheErrorContract) {
  // Every reader documents one error contract: malformed input throws
  // std::runtime_error naming the line, and a scenario that parses but
  // fails ChaosScenario::validate() throws util::ContractViolation. Each
  // verdict (the re-serialized input, or the error) folds into a golden
  // recorded with the strict number parser, so a later reader refactor is
  // held to the same verdicts.
  const net::UpdateInstance fig1 = net::fig1_instance();
  std::vector<MutantSeed> seeds;
  seeds.push_back({Reader::kTrace, testdata("sample.trace")});
  seeds.push_back({Reader::kScenario, testdata("scenarios/quiet.scn")});
  seeds.push_back({Reader::kScenario, testdata("scenarios/storm.scn")});
  {
    std::ostringstream os;
    write_instance(os, fig1);
    seeds.push_back({Reader::kInstance, os.str()});
  }
  util::Rng instances(0x10f1);
  for (const std::size_t n : {6, 12}) {
    net::RandomInstanceOptions opt;
    opt.n = n;
    std::ostringstream os;
    write_instance(os, net::random_instance(opt, instances));
    seeds.push_back({Reader::kInstance, os.str()});
  }
  seeds.push_back({Reader::kFlows,
                   "link s0 m cap=2 delay=1\nlink s1 m cap=2 delay=1\n"
                   "link m t cap=2 delay=1\nlink s0 b cap=2 delay=1\n"
                   "link b t cap=2 delay=2\nflow f0 demand=1\n"
                   "init s0 m t\nfin s0 b t\nflow f1 demand=0.5\n"
                   "init s1 m t\nfin s1 m t\n"});
  {
    std::ostringstream os;
    write_schedule(os, fig1, core::greedy_schedule(fig1).schedule);
    seeds.push_back({Reader::kSchedule, os.str()});
  }

  std::uint64_t h = 14695981039346656037ULL;
  const auto fold = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // verdict separator
    h *= 1099511628211ULL;
  };
  int parsed = 0, line_errors = 0, contract_errors = 0, escaped = 0;
  util::Rng rng(0x10f2);
  for (const MutantSeed& seed : seeds) {
    for (int k = 0; k < 600; ++k) {
      std::string text = seed.text;
      const int rounds = static_cast<int>(rng.uniform_int(1, 3));
      for (int r = 0; r < rounds; ++r) text = mutate(std::move(text), rng);
      std::istringstream in(text);
      std::ostringstream out;
      try {
        switch (seed.reader) {
          case Reader::kTrace:
            write_trace(out, read_trace(in));
            break;
          case Reader::kScenario:
            write_scenario(out, read_scenario(in));
            break;
          case Reader::kInstance:
            write_instance(out, read_instance(in));
            break;
          case Reader::kFlows:
            for (const auto& flow : read_flows(in)) write_instance(out, flow);
            break;
          case Reader::kSchedule:
            write_schedule(out, fig1, read_schedule(in, fig1));
            break;
        }
        ++parsed;
        fold("ok\n" + out.str());
      } catch (const util::ContractViolation& e) {
        // Only scenario validation may answer with a contract; its file
        // and line stay out of the digest.
        if (seed.reader != Reader::kScenario && escaped++ < 5) {
          ADD_FAILURE() << "contract outside validation: " << e.what()
                        << "\non:\n" << text;
        }
        ++contract_errors;
        fold(std::string("contract ") + e.kind() + ": " + e.expr());
      } catch (const std::runtime_error& e) {
        ++line_errors;
        fold(std::string("error ") + e.what());
      } catch (const std::exception& e) {
        if (escaped++ < 5) {
          ADD_FAILURE() << "escaped the error contract: " << e.what()
                        << "\non:\n" << text;
        }
        fold("escaped");
      }
    }
  }
  EXPECT_EQ(escaped, 0);
  // The 4 800 mutants reach every verdict: 1 033 parse, 3 757 are line
  // errors and 10 fail scenario validation.
  EXPECT_EQ(parsed + line_errors + contract_errors, 4800);
  EXPECT_GT(parsed, 500);
  EXPECT_GT(line_errors, 1000);
  EXPECT_GT(contract_errors, 5);
  EXPECT_EQ(h, 0xe9f43c2fe3b83722ULL) << std::hex << h;
}

}  // namespace
}  // namespace chronus::io
