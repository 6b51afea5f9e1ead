// Microbenchmarks (google-benchmark) for the algorithmic building blocks:
// dependency-set computation, loop checks, the verifier, the greedy
// scheduler (both modes) and the planners.
//
//   ./bench/micro_algorithms [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/loop_check.hpp"
#include "net/generators.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
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
