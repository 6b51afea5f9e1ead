// Fig. 6 — link bandwidth consumption over time during an update.
//
// The Mininet experiment of §V.A, reproduced on the simulated testbed: a
// 10-switch topology (the Fig. 1 pattern extended with a drain tail), every
// link 500 Mbps, one 500 Mbps traffic aggregate, link delays of 300 ms (the
// paper uses 5 ms..1 s), byte counters polled every second exactly like the
// Floodlight statistics module. The update starts at t = 5 s.
//
// The monitored link is the old-path segment v4->v5, where order
// replacement's asynchronous round 1 lets the rerouted flow from v1 meet
// the in-flight traffic still passing v2/v3 — the counter then reads above
// the 500 Mbps capacity (the paper sees ~600 Mbps), while Chronus' timed
// schedule and TP's per-packet versioning never exceed it anywhere.
//
//   ./bench/fig6_bandwidth [--seed=N] [--delay-ms=N]
#include "bench_common.hpp"

#include <algorithm>

#include "sim/queue.hpp"
#include "sim/traffic.hpp"
#include "sim/updaters.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace chronus;

namespace {

net::UpdateInstance fig6_instance() {
  net::Graph g;
  for (int i = 1; i <= 10; ++i) g.add_node("v" + std::to_string(i));
  for (net::NodeId v = 0; v + 1 < 10; ++v) g.add_link(v, v + 1, net::Capacity{1.0}, 1);
  g.add_link(0, 3, net::Capacity{1.0}, 1);  // v1 -> v4
  g.add_link(3, 2, net::Capacity{1.0}, 1);  // v4 -> v3
  g.add_link(2, 1, net::Capacity{1.0}, 1);  // v3 -> v2
  g.add_link(1, 9, net::Capacity{1.0}, 1);  // v2 -> v10
  return net::UpdateInstance::from_paths(
      std::move(g), net::Path{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      net::Path{0, 3, 2, 1, 9}, net::Demand{1.0});
}

struct SchemeRun {
  std::vector<double> series;  // Mbps on the monitored link, per second
  double peak_any_link = 0.0;  // Mbps, peak 1s window over every link
  double dropped_kb = 0.0;     // bytes lost across all 1 MB link buffers
};

SchemeRun run_scheme(const char* scheme, const net::UpdateInstance& inst,
                     sim::SimTime delay_unit, sim::SimTime latency_median,
                     std::uint64_t seed) {
  sim::Network network(inst.graph(), delay_unit, 500e6);
  sim::EventQueue eq;
  util::Rng rng(seed);
  // Rule-install latencies follow the Dionysus measurements the paper
  // samples from: median on the order of a second, heavy log-normal tail.
  sim::ControlChannelModel model;
  model.latency_median = latency_median;
  sim::Controller ctrl(eq, network, rng, model);
  sim::SimFlowSpec spec;
  spec.rate_bps = 500e6;

  const std::string name = scheme;
  const sim::SimTime t0 = 5 * sim::kSecond + 7 * sim::kMillisecond;
  sim::install_initial_rules(ctrl, inst, spec, /*versioned=*/name == "TP");
  if (name == "CHRONUS") {
    sim::run_chronus_update(ctrl, inst, spec, t0, delay_unit);
  } else if (name == "TP") {
    sim::run_two_phase_update(ctrl, inst, spec, t0, 4 * sim::kSecond);
  } else {
    sim::run_or_update(ctrl, inst, spec, t0);
  }
  ctrl.flush();

  sim::TrafficFlow flow;
  flow.name = spec.name;
  flow.header.dst = spec.dst_prefix + "1";
  flow.header.in_port = sim::kHostPort;
  flow.ingress = inst.source();
  flow.rate_bps = spec.rate_bps;
  sim::TraceOptions topts;
  topts.t_begin = 0;
  topts.t_end = 25 * sim::kSecond;
  topts.quantum = 25 * sim::kMillisecond;
  const sim::TrafficReport traffic = trace_traffic(network, {flow}, topts);

  SchemeRun out;
  const auto monitored = *network.link_between(3, 4);  // v4 -> v5
  for (const double v : sim::bandwidth_series(traffic, monitored, 0,
                                              25 * sim::kSecond, sim::kSecond)) {
    out.series.push_back(v / 1e6);
  }
  for (net::LinkId id = 0; id < network.link_count(); ++id) {
    for (const double v : sim::bandwidth_series(traffic, id, 0,
                                                25 * sim::kSecond,
                                                sim::kSecond)) {
      out.peak_any_link = std::max(out.peak_any_link, v / 1e6);
    }
    // A typical 1 MB per-port buffer: what the over-capacity interval
    // costs in actual traffic loss (the paper's "beyond the buffer size").
    out.dropped_kb += sim::analyze_queue(network.link(id),
                                         traffic.offered_bps[id], 1e6, 0,
                                         25 * sim::kSecond)
                          .dropped_bytes /
                      1e3;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const sim::SimTime delay_unit =
      cli.get_int("delay-ms", 300) * sim::kMillisecond;
  const sim::SimTime latency_median =
      cli.get_int("latency-ms", 1500) * sim::kMillisecond;
  bench::reject_unknown_flags(cli);

  bench::print_header("Fig. 6", "bandwidth consumption on v4->v5 (Mbps)");
  std::printf("10 switches, 500 Mbps links, 500 Mbps aggregate, link delay "
              "%lld ms, rule latency median %lld ms (Dionysus-like), update "
              "at t=5s, 1s counter polling, seed=%llu\n\n",
              static_cast<long long>(delay_unit / sim::kMillisecond),
              static_cast<long long>(latency_median / sim::kMillisecond),
              static_cast<unsigned long long>(seed));

  const auto inst = fig6_instance();
  const SchemeRun chronus =
      run_scheme("CHRONUS", inst, delay_unit, latency_median, seed);
  const SchemeRun tp = run_scheme("TP", inst, delay_unit, latency_median, seed);
  const SchemeRun orr = run_scheme("OR", inst, delay_unit, latency_median, seed);

  util::Table table({"time (s)", "CHRONUS", "TP", "OR"});
  for (std::size_t i = 0; i < chronus.series.size(); ++i) {
    table.add_row({std::to_string(i), util::fmt(chronus.series[i], 1),
                   util::fmt(tp.series[i], 1), util::fmt(orr.series[i], 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\npeak 1s-window load over all links (capacity 500 Mbps):\n");
  std::printf("  CHRONUS %.1f Mbps, TP %.1f Mbps, OR %.1f Mbps\n",
              chronus.peak_any_link, tp.peak_any_link, orr.peak_any_link);
  std::printf("traffic lost to 1 MB port buffers during the update:\n");
  std::printf("  CHRONUS %.0f KB, TP %.0f KB, OR %.0f KB\n",
              chronus.dropped_kb, tp.dropped_kb, orr.dropped_kb);
  std::printf("(paper: OR peaks around 600 Mbps — beyond buffer headroom — "
              "while CHRONUS and TP stay in the normal range)\n");
  return 0;
}
