// Per-layer measurement helpers for the traced run. Everything here reads
// the obs counters and spans the library already records, or times calls
// into public functions from outside; nothing adds a span inside src/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "rpc/codec.hpp"
#include "service/request.hpp"

namespace chronus::perfbench {

/// The spans and counters of one registry snapshot. A span path is the
/// dotted nesting the obs layer records ("workerpool.job.greedy.schedule").
class SpanTable {
 public:
  explicit SpanTable(const obs::MetricsSnapshot& snap);

  /// Summed wall time of the spans recorded under exactly `path`, in ms.
  double total_ms(const std::string& path) const;
  /// Summed wall time of every span whose path is `name` or ends in
  /// ".name", in ms.
  double total_named_ms(const std::string& name) const;
  /// total_ms(path) minus the time of its direct child spans.
  double self_ms(const std::string& path) const;

  std::uint64_t counter(const std::string& name) const;

 private:
  std::map<std::string, double> span_ms_;  ///< by path
  std::map<std::string, std::uint64_t> counters_;
};

/// Encodes and decodes every message with `codec` through rpc::encode and
/// rpc::Decoder::next; returns mean microseconds per frame, or a negative
/// value if a frame does not decode back to itself.
double codec_us_per_frame(rpc::Codec codec,
                          const std::vector<rpc::Message>& frames);

struct BuildCost {
  double instance_build_us = 0.0;  ///< per request
  double dependency_us = 0.0;      ///< per find_dependencies call
};

/// Times, per request, what the service does before planning it:
/// service::transition_footprint + CapacityLedger::restricted_graph +
/// net::UpdateInstance::from_paths; then core::find_dependencies over the
/// instance's full pending set. Each build runs inside a
/// "perfbench.instance_build" span.
BuildCost build_cost(const net::Graph& base,
                     const std::vector<service::UpdateRequest>& requests);

}  // namespace chronus::perfbench
