// Writes the request pool of the fat_tree workload:
//
//   .bench_build/perfbench/perfbench_fat_tree_pool > perfbench/data/fat_tree_pool.trace
//
// The pool holds random k=8 fat-tree reroutes between edge switches of
// different pods (net::random_reroute, demand 0.5-1.5 in steps of 1/16),
// each labelled once by whether the service's guarded greedy can plan it
// within its own capacity reservation on an idle network: name "p<i>" if
// it can, "u<i>" if not. Draws go on until kUnplannable unplannable and
// kPlannable plannable reroutes are in, so the pool deals one unplannable
// reroute into each 20-request wave, the share measured on the draws
// (stderr). The benchmark only reads the pool; it never runs the planner to
// make its inputs, so they do not depend on the code under test. The pool
// is benchmark data: regenerating it redefines the workload.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "io/trace_io.hpp"
#include "net/topologies.hpp"
#include "service/capacity_ledger.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace chronus;

constexpr int kPods = 8;
constexpr std::size_t kUnplannable = 32;
constexpr std::size_t kPlannable = 32 * 19;
constexpr std::uint64_t kPoolSeed = 20170605;

/// True iff the service could plan `r` on an idle network: the guarded
/// greedy finds a safe order within the request's own capacity reservation
/// (what the service's single-request planning sees when nothing else is in
/// flight).
bool plannable_alone(const net::Graph& g, const service::UpdateRequest& r) {
  const service::CapacityLedger idle(g);
  const net::UpdateInstance inst = net::UpdateInstance::from_paths(
      idle.restricted_graph(
          g, service::transition_footprint(g, r.p_init, r.p_fin, r.demand)),
      r.p_init, r.p_fin, r.demand);
  return core::greedy_schedule(inst, service::ServiceOptions{}.greedy)
      .feasible();
}

}  // namespace

int main() {
  const net::FatTree ft = net::fat_tree(kPods, net::Capacity{4.0});
  util::Rng rng(kPoolSeed);
  std::vector<service::UpdateRequest> plannable, unplannable;
  std::size_t draws = 0;
  std::size_t drawn_unplannable = 0;
  while (plannable.size() < kPlannable || unplannable.size() < kUnplannable) {
    const std::size_t pod_a = rng.index(kPods);
    std::size_t pod_b = rng.index(kPods - 1);
    if (pod_b >= pod_a) ++pod_b;
    const net::NodeId src = ft.edge[pod_a][rng.index(ft.edge[pod_a].size())];
    const net::NodeId dst = ft.edge[pod_b][rng.index(ft.edge[pod_b].size())];
    // Multiples of 1/16 print exactly, which keeps the pool file short.
    const net::Demand demand{0.5 + static_cast<double>(rng.index(17)) / 16.0};
    const auto inst = net::random_reroute(ft.graph, src, dst, demand, rng);
    if (!inst) continue;
    service::UpdateRequest r;
    r.demand = demand;
    r.p_init = inst->p_init();
    r.p_fin = inst->p_fin();
    ++draws;
    const bool ok = plannable_alone(ft.graph, r);
    drawn_unplannable += ok ? 0 : 1;
    std::vector<service::UpdateRequest>& into = ok ? plannable : unplannable;
    if (into.size() < (ok ? kPlannable : kUnplannable)) {
      r.name = (ok ? "p" : "u") + std::to_string(into.size());
      into.push_back(std::move(r));
    }
  }
  std::fprintf(stderr, "%zu reroutes drawn, %zu unplannable (1 in %.1f)\n",
               draws, drawn_unplannable,
               static_cast<double>(draws) / static_cast<double>(drawn_unplannable));

  service::ServiceTrace pool;
  pool.graph = ft.graph;
  for (std::vector<service::UpdateRequest>* part : {&plannable, &unplannable}) {
    for (service::UpdateRequest& r : *part) {
      r.id = pool.requests.size();
      pool.requests.push_back(std::move(r));
    }
  }
  io::write_trace(std::cout, pool);
  return 0;
}
