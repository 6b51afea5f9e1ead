#include "service/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/chaos.hpp"

namespace chronus::service {

ServiceTrace make_workload(const WorkloadOptions& opt) {
  if (opt.pairs < 1) throw std::invalid_argument("pairs must be >= 1");
  if (opt.requests < 0) throw std::invalid_argument("requests must be >= 0");
  if (opt.arrival_rate_hz <= 0.0) {
    throw std::invalid_argument("arrival_rate_hz must be positive");
  }
  if (opt.rescue_sites < 0) {
    throw std::invalid_argument("rescue_sites must be >= 0");
  }
  if (3 * opt.rescue_sites > opt.requests) {
    throw std::invalid_argument("rescue_sites need three requests each");
  }

  ServiceTrace trace;
  net::Graph& g = trace.graph;

  // Shared core rails: the contested links every conflicting request
  // transitions between.
  const net::NodeId a = g.add_node("A");
  const net::NodeId b = g.add_node("B");
  const net::NodeId c = g.add_node("C");
  const net::NodeId d = g.add_node("D");
  g.add_link(a, b, opt.core_capacity, 1);
  g.add_link(c, d, opt.core_capacity, 1);

  struct Pair {
    net::NodeId s, t;     // endpoints
    net::NodeId p, q;     // private rail 1
    net::NodeId r, u;     // private rail 2
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<std::size_t>(opt.pairs));
  for (int i = 0; i < opt.pairs; ++i) {
    const std::string k = std::to_string(i);
    Pair pr;
    pr.s = g.add_node("s" + k);
    pr.t = g.add_node("t" + k);
    pr.p = g.add_node("p" + k);
    pr.q = g.add_node("q" + k);
    pr.r = g.add_node("r" + k);
    pr.u = g.add_node("u" + k);
    g.add_link(pr.s, a, opt.edge_capacity, 1);
    g.add_link(b, pr.t, opt.edge_capacity, 1);
    g.add_link(pr.s, c, opt.edge_capacity, 1);
    g.add_link(d, pr.t, opt.edge_capacity, 1);
    g.add_link(pr.s, pr.p, opt.private_capacity, 1);
    g.add_link(pr.p, pr.q, opt.private_capacity, 1);
    g.add_link(pr.q, pr.t, opt.private_capacity, 1);
    g.add_link(pr.s, pr.r, opt.private_capacity, 1);
    g.add_link(pr.r, pr.u, opt.private_capacity, 1);
    g.add_link(pr.u, pr.t, opt.private_capacity, 1);
    pairs.push_back(pr);
  }

  util::Rng rng(opt.seed);
  std::vector<UpdateRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(opt.requests));

  const int background = opt.requests - 3 * opt.rescue_sites;
  double clock_sec = 0.0;
  for (int i = 0; i < background; ++i) {
    // Chaos surges scale the instantaneous rate at the draw's own virtual
    // time; the uniform01 draw itself is unchanged, so a quiet (or absent)
    // scenario leaves the trace bit-identical.
    double rate_hz = opt.arrival_rate_hz;
    if (opt.chaos != nullptr) {
      rate_hz *= opt.chaos->arrival_multiplier_at(static_cast<sim::SimTime>(
          std::llround(clock_sec * static_cast<double>(sim::kSecond))));
    }
    clock_sec += -std::log(1.0 - rng.uniform01()) / rate_hz;

    UpdateRequest req;
    req.arrival = static_cast<sim::SimTime>(
        std::llround(clock_sec * static_cast<double>(sim::kSecond)));
    req.priority = opt.priorities > 1
                       ? static_cast<int>(rng.uniform_int(0, opt.priorities - 1))
                       : 0;

    const Pair& pr = pairs[rng.index(pairs.size())];
    const bool oversize =
        opt.oversize_prob > 0.0 && rng.chance(opt.oversize_prob);
    const bool core = oversize || rng.chance(opt.conflict_density);
    const bool swap = rng.chance(0.5);
    req.demand =
        oversize
            ? net::Demand{opt.core_capacity.value() + 1.0 + rng.uniform01()}
            : net::Demand{rng.uniform(opt.demand_min.value(), opt.demand_max.value())};
    net::Path one, two;
    if (core) {
      one = net::Path{pr.s, a, b, pr.t};
      two = net::Path{pr.s, c, d, pr.t};
    } else {
      one = net::Path{pr.s, pr.p, pr.q, pr.t};
      two = net::Path{pr.s, pr.r, pr.u, pr.t};
    }
    req.p_init = swap ? two : one;
    req.p_fin = swap ? one : two;
    reqs.push_back(std::move(req));
  }

  // Rescue sites: a contested link sized for ~1.25 flows, an enterer that
  // grabs it, then a vacater and a second enterer arriving while the first
  // transition is still in flight. The second enterer stays blocked until
  // the vacater's transition has released the link.
  const double span_sec =
      static_cast<double>(opt.requests) / opt.arrival_rate_hz;
  for (int k = 0; k < opt.rescue_sites; ++k) {
    const std::string suffix = std::to_string(k);
    const net::NodeId e = g.add_node("e" + suffix);
    const net::NodeId f = g.add_node("f" + suffix);
    const net::NodeId m = g.add_node("m" + suffix);
    const net::NodeId n = g.add_node("n" + suffix);
    const net::NodeId x = g.add_node("x" + suffix);
    const net::NodeId y = g.add_node("y" + suffix);
    const net::NodeId z = g.add_node("z" + suffix);
    const net::Demand demand{
        rng.uniform(opt.demand_min.value(), opt.demand_max.value())};
    g.add_link(m, n, util::capacity_for(demand, 1.25), 1);  // contested link
    g.add_link(e, m, opt.edge_capacity, 1);
    g.add_link(n, f, opt.edge_capacity, 1);
    for (const net::NodeId alt : {x, y, z}) {
      g.add_link(e, alt, opt.edge_capacity, 1);
      g.add_link(alt, f, opt.edge_capacity, 1);
    }
    const double t0_sec =
        span_sec * static_cast<double>(k + 1) /
        static_cast<double>(opt.rescue_sites + 1);
    const int priority =
        opt.priorities > 1
            ? static_cast<int>(rng.uniform_int(0, opt.priorities - 1))
            : 0;
    const net::Path contested{e, m, n, f};
    const auto site_request = [&](double at_sec, const net::Path& init,
                                  const net::Path& fin) {
      UpdateRequest req;
      req.arrival = static_cast<sim::SimTime>(
          std::llround(at_sec * static_cast<double>(sim::kSecond)));
      req.priority = priority;
      req.demand = demand;
      req.p_init = init;
      req.p_fin = fin;
      reqs.push_back(std::move(req));
    };
    site_request(t0_sec, net::Path{e, x, f}, contested);         // enterer 1
    site_request(t0_sec + 0.15, contested, net::Path{e, y, f});  // vacater
    site_request(t0_sec + 0.20, net::Path{e, z, f}, contested);  // enterer 2
  }

  // Ids (and hence same-priority service order) follow arrival order.
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const UpdateRequest& lhs, const UpdateRequest& rhs) {
                     return lhs.arrival < rhs.arrival;
                   });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = i;
    reqs[i].name = "r" + std::to_string(i);
    if (opt.deadline > 0) reqs[i].deadline = reqs[i].arrival + opt.deadline;
  }
  trace.requests = std::move(reqs);
  return trace;
}

}  // namespace chronus::service
