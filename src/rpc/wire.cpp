#include "rpc/wire.hpp"

#include <stdexcept>

namespace chronus::rpc {

const char* to_string(MsgType t) {
  for (const MsgTypeName& e : kMsgTypes) {
    if (e.type == t) return e.name;
  }
  return "unknown";
}

std::map<std::string, net::NodeId> node_index(const net::Graph& g) {
  std::map<std::string, net::NodeId> index;
  for (net::NodeId v = 0; v < g.node_count(); ++v) index[g.name(v)] = v;
  return index;
}

namespace {

std::vector<std::string> path_names(const net::Graph& g, const net::Path& p) {
  std::vector<std::string> names;
  names.reserve(p.size());
  for (net::NodeId v : p) names.push_back(g.name(v));
  return names;
}

net::Path resolve_path(const std::map<std::string, net::NodeId>& index,
                       const std::vector<std::string>& names,
                       const char* field) {
  if (names.size() < 2) {
    throw std::runtime_error(std::string(field) +
                             ": path needs at least two nodes");
  }
  std::vector<net::NodeId> nodes;
  nodes.reserve(names.size());
  for (const std::string& n : names) {
    auto it = index.find(n);
    if (it == index.end()) {
      throw std::runtime_error(std::string(field) + ": unknown node '" + n +
                               "'");
    }
    nodes.push_back(it->second);
  }
  return net::Path{std::move(nodes)};
}

}  // namespace

WireRequest to_wire(const net::Graph& g, const service::UpdateRequest& r) {
  WireRequest w;
  w.id = r.id;
  w.name = r.name;
  w.demand = r.demand;
  w.arrival = r.arrival;
  w.deadline = r.deadline;
  w.priority = r.priority;
  w.init = path_names(g, r.p_init);
  w.fin = path_names(g, r.p_fin);
  return w;
}

service::UpdateRequest from_wire(
    const std::map<std::string, net::NodeId>& index, const WireRequest& w) {
  if (!(w.demand.value() > 0.0)) {
    throw std::runtime_error("demand: must be positive");
  }
  if (w.arrival < 0) throw std::runtime_error("arrival: must be >= 0");
  if (w.arrival > service::kMaxArrival) {
    throw std::runtime_error("arrival: beyond the service horizon 2^62");
  }
  if (w.deadline < 0) throw std::runtime_error("deadline: must be >= 0");
  service::UpdateRequest r;
  r.id = w.id;
  r.name = w.name;
  r.demand = w.demand;
  r.arrival = w.arrival;
  r.deadline = w.deadline;
  r.priority = w.priority;
  r.p_init = resolve_path(index, w.init, "init");
  r.p_fin = resolve_path(index, w.fin, "fin");
  return r;
}

WireRecord to_wire(const service::RequestRecord& rec) {
  WireRecord w;
  w.id = rec.id;
  w.status = service::to_string(rec.status);
  w.arrival = rec.arrival;
  w.admitted = rec.admitted;
  w.completed = rec.completed;
  w.defers = rec.defers;
  w.joint = rec.joint;
  w.batch = rec.batch;
  w.plan_span = rec.plan_span;
  w.exec_duration = rec.exec_duration;
  w.retries = rec.exec_retries;
  w.faults = rec.faults;
  w.degradation = service::to_string(rec.degradation);
  w.plan_verified = rec.plan_verified;
  w.run_verified = rec.run_verified;
  w.violations = rec.violations;
  w.message = rec.message;
  return w;
}

}  // namespace chronus::rpc
