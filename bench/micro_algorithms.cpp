// Microbenchmarks (google-benchmark) for the algorithmic building blocks:
// dependency-set computation, loop checks, the verifier, the greedy
// scheduler (both modes), the planners, one request through the update
// service, and one frame through each wire codec.
//
//   ./bench/micro_algorithms [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/loop_check.hpp"
#include "net/generators.hpp"
#include "net/topologies.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
#include "rpc/codec.hpp"
#include "rpc/wire.hpp"
#include "service/service.hpp"
#include "timenet/path_enum.hpp"
#include "timenet/verifier.hpp"

using namespace chronus;

namespace {

net::UpdateInstance make_instance(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  net::RandomInstanceOptions opt;
  opt.n = n;
  return net::random_instance(opt, rng);
}

void BM_RandomInstance(benchmark::State& state) {
  util::Rng rng(1);
  net::RandomInstanceOptions opt;
  opt.n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::random_instance(opt, rng));
  }
}
BENCHMARK(BM_RandomInstance)->Arg(10)->Arg(100)->Arg(1000);

void BM_DependencySet(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 2);
  std::set<net::NodeId> pending;
  for (const auto v : inst.switches_to_update()) pending.insert(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_dependencies(inst, {}, pending));
  }
}
BENCHMARK(BM_DependencySet)->Arg(10)->Arg(100)->Arg(1000);

void BM_Algorithm4Batched(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 3);
  const core::Algorithm4Context ctx(inst);  // nothing updated yet
  const auto to_update = inst.switches_to_update();
  for (auto _ : state) {
    for (const auto v : to_update) benchmark::DoNotOptimize(ctx.loops(v, timenet::TimePoint{0}));
  }
}
BENCHMARK(BM_Algorithm4Batched)->Arg(100)->Arg(1000);

void BM_VerifyTransition(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 4);
  core::GreedyOptions opts;
  opts.guard_with_verifier = false;
  opts.record_steps = false;
  opts.force_complete = true;
  const auto plan = core::greedy_schedule(inst, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timenet::verify_transition(inst, plan.schedule));
  }
}
BENCHMARK(BM_VerifyTransition)->Arg(10)->Arg(40)->Arg(1000);

void BM_GreedyGuarded(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 5);
  core::GreedyOptions opts;
  opts.record_steps = false;
  opts.force_complete = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_schedule(inst, opts));
  }
}
BENCHMARK(BM_GreedyGuarded)->Arg(10)->Arg(40);

void BM_GreedyPure(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 6);
  core::GreedyOptions opts;
  opts.guard_with_verifier = false;
  opts.record_steps = false;
  opts.force_complete = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_schedule(inst, opts));
  }
}
BENCHMARK(BM_GreedyPure)->Arg(100)->Arg(1000)->Arg(6000);

void BM_OrderPlanGreedy(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 7);
  opt::OrderOptions opts;
  opts.exact_limit = 0;  // greedy-maximal only
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_order_replacement(inst, opts));
  }
}
BENCHMARK(BM_OrderPlanGreedy)->Arg(10)->Arg(100);

// ---- offline planners: path set P(f), OPT and OR search (DESIGN.md §16) ---

void BM_PathEnum(benchmark::State& state) {
  const auto inst = make_instance(30, 9);
  timenet::EnumerateOptions opts;
  opts.t_end = timenet::TimePoint{8};
  opts.max_paths = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timenet::enumerate_timed_paths(
        inst.graph(), inst.p_init().front(), timenet::TimePoint{0},
        inst.p_init().back(), opts));
  }
}
BENCHMARK(BM_PathEnum);

void BM_MutpPlan(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_mutp(inst));
  }
}
BENCHMARK(BM_MutpPlan)->Arg(12);

void BM_OrderPlanExact(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 11);
  opt::OrderOptions opts;
  opts.exact_limit = 18;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_order_replacement(inst, opts));
  }
}
BENCHMARK(BM_OrderPlanExact)->Arg(14);

// ---- serving path: one request through the update service (DESIGN.md §9)

/// One random reroute between two pods of `ft`, as perfbench's fat_tree
/// workload draws them (nullopt when the draw found none).
std::optional<service::UpdateRequest> draw_reroute(const net::FatTree& ft,
                                                   util::Rng& rng) {
  const std::size_t pods = ft.edge.size();
  const std::size_t pod_a = rng.index(pods);
  std::size_t pod_b = rng.index(pods - 1);
  if (pod_b >= pod_a) ++pod_b;
  const net::NodeId src = ft.edge[pod_a][rng.index(ft.edge[pod_a].size())];
  const net::NodeId dst = ft.edge[pod_b][rng.index(ft.edge[pod_b].size())];
  const net::Demand demand{0.5 + static_cast<double>(rng.index(17)) / 16.0};
  const auto inst = net::random_reroute(ft.graph, src, dst, demand, rng);
  if (!inst) return std::nullopt;
  service::UpdateRequest r;
  r.demand = demand;
  r.p_init = inst->p_init();
  r.p_fin = inst->p_fin();
  return r;
}

/// The first reroute between two pods of `ft` that the guarded greedy can
/// plan within its own reservation on an idle network.
service::UpdateRequest plannable_reroute(const net::FatTree& ft) {
  util::Rng rng(20170605);
  for (;;) {
    const std::optional<service::UpdateRequest> r = draw_reroute(ft, rng);
    if (!r) continue;
    const net::UpdateInstance alone = net::UpdateInstance::from_paths(
        service::CapacityLedger(ft.graph).restricted_graph(
            ft.graph, service::transition_footprint(ft.graph, r->p_init,
                                                    r->p_fin, r->demand)),
        r->p_init, r->p_fin, r->demand);
    if (core::greedy_schedule(alone, service::ServiceOptions{}.greedy)
            .feasible()) {
      return *r;
    }
  }
}

/// UpdateService::run of one plannable reroute on fat_tree(k): admission,
/// the guarded greedy, two verifier passes and the simulated execution.
/// The request touches a handful of links whatever k is, so the /16 row
/// over the /8 row shows how much of a request's cost still grows with
/// the topology.
void BM_ServiceSingle(benchmark::State& state) {
  const net::FatTree ft =
      net::fat_tree(static_cast<int>(state.range(0)), net::Capacity{4.0});
  const service::UpdateRequest req = plannable_reroute(ft);
  service::UpdateService svc(ft.graph);
  if (svc.run({req}).completed != 1) {
    state.SkipWithError("the reroute did not complete");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.run({req}));
  }
}
BENCHMARK(BM_ServiceSingle)->Arg(8)->Arg(16);

// ---- the wire: one frame through either codec (DESIGN.md §14)

/// 64 fat_tree(8) reroutes on the wire: their submits, or the records the
/// update service sends back for them. perfbench's fat_tree workload sends
/// these frames, and its `rpc.codec_us_per_frame` is one encode plus one
/// decode of each.
std::vector<rpc::Message> fat_tree_frames(rpc::MsgType type) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  std::vector<service::UpdateRequest> requests;
  while (requests.size() < 64) {
    std::optional<service::UpdateRequest> r = draw_reroute(ft, rng);
    if (!r) continue;
    r->id = requests.size();
    r->name = std::to_string(r->id);
    r->name.insert(r->name.begin(), 'r');
    r->arrival = static_cast<sim::SimTime>(r->id) * 10 * sim::kMillisecond;
    r->deadline = r->arrival + 60 * sim::kSecond;
    requests.push_back(*r);
  }
  std::vector<rpc::Message> frames;
  if (type == rpc::MsgType::kSubmit) {
    for (const service::UpdateRequest& r : requests) {
      rpc::Message& m = frames.emplace_back();
      m.type = type;
      m.submit = rpc::to_wire(ft.graph, r);
    }
    return frames;
  }
  const service::ServiceReport rep =
      service::UpdateService(ft.graph).run(requests);
  for (const service::RequestRecord& rec : rep.records) {
    rpc::Message& m = frames.emplace_back();
    m.type = type;
    m.record = rpc::to_wire(rec);
  }
  return frames;
}

/// One frame per iteration, appended to a reused buffer as a session
/// appends to its outbound buffer.
void BM_CodecEncode(benchmark::State& state, rpc::Codec codec,
                    rpc::MsgType type) {
  const std::vector<rpc::Message> frames = fat_tree_frames(type);
  std::string out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    rpc::encode_to(codec, frames[i++ % frames.size()], out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_CodecEncode, json_submit, rpc::Codec::kJson,
                  rpc::MsgType::kSubmit);
BENCHMARK_CAPTURE(BM_CodecEncode, json_record, rpc::Codec::kJson,
                  rpc::MsgType::kRecord);
BENCHMARK_CAPTURE(BM_CodecEncode, binary_submit, rpc::Codec::kBinary,
                  rpc::MsgType::kSubmit);
BENCHMARK_CAPTURE(BM_CodecEncode, binary_record, rpc::Codec::kBinary,
                  rpc::MsgType::kRecord);

/// One frame per iteration through a long-lived decoder, as a session
/// feeds it.
void BM_CodecDecode(benchmark::State& state, rpc::Codec codec,
                    rpc::MsgType type) {
  std::vector<std::string> bytes;
  for (const rpc::Message& m : fat_tree_frames(type)) {
    bytes.push_back(rpc::encode(codec, m));
  }
  rpc::Decoder decoder(codec);
  rpc::Message m;
  std::string error;
  std::size_t i = 0;
  for (auto _ : state) {
    decoder.feed(bytes[i++ % bytes.size()]);
    if (decoder.next(&m, &error) != rpc::Decoder::Result::kMessage) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK_CAPTURE(BM_CodecDecode, json_submit, rpc::Codec::kJson,
                  rpc::MsgType::kSubmit);
BENCHMARK_CAPTURE(BM_CodecDecode, json_record, rpc::Codec::kJson,
                  rpc::MsgType::kRecord);
BENCHMARK_CAPTURE(BM_CodecDecode, binary_submit, rpc::Codec::kBinary,
                  rpc::MsgType::kSubmit);
BENCHMARK_CAPTURE(BM_CodecDecode, binary_record, rpc::Codec::kBinary,
                  rpc::MsgType::kRecord);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Trajectory declaration (tests/bench_schema_test.cpp validates it):
  // wall timings on shared runners are noisy, so the declared band is the
  // tolerance for manual comparisons against the checked-in rows. CI only
  // checks that every checked-in benchmark name is still present.
  benchmark::AddCustomContext("chronus_schema", "bench-trajectory-v1");
  benchmark::AddCustomContext("chronus_noise_band_pct", "25");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
