#include "layers.hpp"

#include <chrono>
#include <optional>
#include <set>

#include "core/dependency.hpp"
#include "net/instance.hpp"
#include "obs/span.hpp"
#include "service/capacity_ledger.hpp"

namespace chronus::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

SpanTable::SpanTable(const obs::MetricsSnapshot& snap)
    : counters_(snap.counters) {
  const std::string head = "span.";
  const std::string tail = "_wall_us";
  for (const auto& [name, h] : snap.histograms) {
    if (name.size() <= head.size() + tail.size() || !starts_with(name, head) ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    const std::string path =
        name.substr(head.size(), name.size() - head.size() - tail.size());
    span_ms_[path] += static_cast<double>(h.sum) / 1000.0;
  }
}

double SpanTable::total_ms(const std::string& path) const {
  const auto it = span_ms_.find(path);
  return it == span_ms_.end() ? 0.0 : it->second;
}

double SpanTable::total_named_ms(const std::string& name) const {
  double sum = 0.0;
  const std::string dotted = "." + name;
  for (const auto& [path, ms] : span_ms_) {
    if (path == name ||
        (path.size() > dotted.size() &&
         path.compare(path.size() - dotted.size(), dotted.size(), dotted) ==
             0)) {
      sum += ms;
    }
  }
  return sum;
}

double SpanTable::self_ms(const std::string& path) const {
  // A direct child is a recorded descendant with no recorded path strictly
  // between the two; span names contain dots themselves, so depth cannot be
  // read off the dot count.
  const std::string prefix = path + ".";
  double children = 0.0;
  for (const auto& [child, ms] : span_ms_) {
    if (!starts_with(child, prefix)) continue;
    bool direct = true;
    for (const auto& [mid, unused] : span_ms_) {
      if (mid != child && starts_with(mid, prefix) &&
          starts_with(child, mid + ".")) {
        direct = false;
        break;
      }
    }
    if (direct) children += ms;
  }
  return total_ms(path) - children;
}

std::uint64_t SpanTable::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double codec_us_per_frame(rpc::Codec codec,
                          const std::vector<rpc::Message>& frames) {
  if (frames.empty()) return 0.0;
  CHRONUS_SPAN("perfbench.codec_replay");
  rpc::Decoder decoder(codec);
  rpc::Message decoded;
  std::string error;
  bool exact = true;
  const Clock::time_point t0 = Clock::now();
  for (const rpc::Message& m : frames) {
    decoder.feed(rpc::encode(codec, m));
    if (decoder.next(&decoded, &error) != rpc::Decoder::Result::kMessage ||
        !(decoded == m)) {
      exact = false;
    }
  }
  const double us = us_since(t0);
  return exact ? us / static_cast<double>(frames.size()) : -1.0;
}

BuildCost build_cost(const net::Graph& base,
                     const std::vector<service::UpdateRequest>& requests) {
  BuildCost cost;
  if (requests.empty()) return cost;
  const service::CapacityLedger ledger(base);
  double build_us = 0.0;
  double deps_us = 0.0;
  for (const service::UpdateRequest& r : requests) {
    const Clock::time_point t0 = Clock::now();
    std::optional<net::UpdateInstance> inst;
    {
      CHRONUS_SPAN("perfbench.instance_build");
      const service::Footprint fp =
          service::transition_footprint(base, r.p_init, r.p_fin, r.demand);
      inst.emplace(net::UpdateInstance::from_paths(
          ledger.restricted_graph(base, fp), r.p_init, r.p_fin, r.demand));
    }
    build_us += us_since(t0);
    const std::vector<net::NodeId> to_update = inst->switches_to_update();
    const std::set<net::NodeId> pending(to_update.begin(), to_update.end());
    const Clock::time_point t1 = Clock::now();
    (void)core::find_dependencies(*inst, {}, pending);
    deps_us += us_since(t1);
  }
  const auto n = static_cast<double>(requests.size());
  cost.instance_build_us = build_us / n;
  cost.dependency_us = deps_us / n;
  return cost;
}

}  // namespace chronus::perfbench
