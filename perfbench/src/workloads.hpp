// The benchmark's workloads and their seeded input generators.
//
// Serving workloads (two_rail, fat_tree) are closed-loop wave
// replays through rpc::Server. One generated *pass* holds `pass_waves`
// waves of exactly `wave_size` requests; a run replays the pass over and
// over (fresh ids, later virtual times) until its time is up. Every wave is
// shifted to start kWaveGap after the previous one, which is longer than
// any request can stay in the system (deadline plus execution), so a wave's
// outcome does not depend on whether the server keeps state across rounds.
//
// The planner workload (fig10_6k) is a list of §V.B random instances of
// 6 000 switches, planned in process by the paper's Algorithm 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "net/instance.hpp"
#include "rpc/codec.hpp"
#include "service/request.hpp"
#include "sim/sim_time.hpp"

namespace chronus::perfbench {

/// Virtual spacing of successive waves: a request's deadline (60 s) plus
/// its execution (a few seconds) stays far below it.
inline constexpr sim::SimTime kWaveGap = 300 * sim::kSecond;

struct WorkloadSpec {
  std::string name;
  bool serving = true;     ///< false: in-process planner workload
  int wave_size = 0;       ///< requests per wave (= planning round)
  int pass_waves = 0;      ///< waves in one generated pass
  int connections = 1;     ///< client connections (serving)
  rpc::Codec codec = rpc::Codec::kBinary;
  /// fig10_6k: instances every run plans at least, each a fresh one; the
  /// outcome metrics cover them.
  int instances = 0;
  double tail_percentile = 99.0;  ///< percentile behind latency_tail_ms
};

/// The spec of a named workload; throws std::invalid_argument if unknown.
const WorkloadSpec& workload_spec(const std::string& name);

/// One generated pass of a serving workload. Wave w holds requests with
/// ids [w * wave_size, (w + 1) * wave_size), arriving from w * kWaveGap on.
struct ServingInput {
  net::Graph graph;
  std::vector<std::vector<service::UpdateRequest>> waves;
};

ServingInput make_serving_input(const WorkloadSpec& spec, std::uint64_t seed);

/// The requests of global wave `g`: wave g % pass of the generated pass,
/// with ids and virtual times moved past every earlier wave.
std::vector<service::UpdateRequest> wave_at(const ServingInput& in,
                                            std::size_t g);

/// Virtual instant global wave `g` starts at.
sim::SimTime wave_start(std::size_t g);

/// Instance `k` of the fig10_6k list for `seed`: a §V.B random instance of
/// 6 000 switches.
net::UpdateInstance make_fig10_instance(std::uint64_t seed, std::size_t k);

/// The generated input as text: io::write_trace of one pass, or for
/// fig10_6k io::write_instance of the first spec.instances instances. The
/// determinism tests compare these byte for byte.
std::string input_text(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace chronus::perfbench
