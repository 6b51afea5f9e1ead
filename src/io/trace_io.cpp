#include "io/trace_io.hpp"

#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace chronus::io {

using net::Capacity;
using net::Delay;
using net::Demand;
using net::Graph;
using net::Link;
using net::LinkId;
using net::NodeId;
using net::Path;
using service::ServiceTrace;
using service::UpdateRequest;

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {"", token};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

ServiceTrace read_trace(std::istream& in) {
  ServiceTrace trace;
  Graph& g = trace.graph;
  std::map<std::string, NodeId> by_name;
  const auto node_of = [&](const std::string& name) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    const NodeId id = g.add_node(name);
    by_name.emplace(name, id);
    return id;
  };

  std::set<std::uint64_t> seen_ids;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string cmd;
    if (!(line >> cmd)) continue;

    if (cmd == "node") {
      std::string name;
      if (!(line >> name)) fail(line_no, "node needs a name");
      node_of(name);
    } else if (cmd == "link") {
      std::string from, to, token;
      if (!(line >> from >> to)) fail(line_no, "link needs two endpoints");
      double cap = 1.0;
      Delay delay = 1;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "cap") {
            cap = std::stod(value);
          } else if (key == "delay") {
            delay = std::stoll(value);
          } else {
            fail(line_no, "unknown link attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      const NodeId u = node_of(from);
      const NodeId v = node_of(to);
      try {
        g.add_link(u, v, Capacity{cap}, delay);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
    } else if (cmd == "request") {
      if (!g.link_count()) fail(line_no, "request before any link");
      UpdateRequest req;
      if (!(line >> req.id)) fail(line_no, "request needs an id");
      if (!seen_ids.insert(req.id).second) {
        fail(line_no, "duplicate request id " + std::to_string(req.id));
      }
      std::string token;
      bool saw_init = false;
      while (line >> token && token != "init") {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "arrival") {
            req.arrival = std::stoll(value);
          } else if (key == "demand") {
            req.demand = Demand{std::stod(value)};
          } else if (key == "deadline") {
            req.deadline = std::stoll(value);
          } else if (key == "priority") {
            req.priority = std::stoi(value);
          } else if (key == "name") {
            req.name = value;
          } else {
            fail(line_no, "unknown request attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      saw_init = token == "init";
      if (!saw_init) fail(line_no, "request needs an init path");
      std::vector<NodeId> nodes;
      while (line >> token && token != "fin") nodes.push_back(node_of(token));
      if (token != "fin") fail(line_no, "request needs a fin path");
      if (nodes.size() < 2) fail(line_no, "init needs at least two switches");
      req.p_init = Path(std::move(nodes));
      nodes.clear();
      while (line >> token) nodes.push_back(node_of(token));
      if (nodes.size() < 2) fail(line_no, "fin needs at least two switches");
      req.p_fin = Path(std::move(nodes));
      if (req.demand <= Demand{}) fail(line_no, "demand must be positive");
      if (req.arrival < 0) fail(line_no, "arrival must be >= 0");
      if (req.arrival > service::kMaxArrival) {
        fail(line_no, "arrival beyond the service horizon 2^62");
      }
      trace.requests.push_back(std::move(req));
    } else {
      fail(line_no, "unknown directive: " + cmd);
    }
  }
  return trace;
}

ServiceTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_trace(in);
}

void write_trace(std::ostream& out, const ServiceTrace& trace) {
  const Graph& g = trace.graph;
  // Full round-trip precision: a written trace must reload to the exact
  // same capacities and demands, or replayed runs diverge from the
  // generator's.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "node " << g.name(v) << "\n";
  }
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const Link& l = g.link(id);
    out << "link " << g.name(l.src) << " " << g.name(l.dst) << " cap="
        << l.capacity << " delay=" << l.delay << "\n";
  }
  for (const UpdateRequest& r : trace.requests) {
    out << "request " << r.id << " arrival=" << r.arrival << " demand="
        << r.demand;
    if (r.deadline > 0) out << " deadline=" << r.deadline;
    if (r.priority != 0) out << " priority=" << r.priority;
    if (!r.name.empty()) out << " name=" << r.name;
    out << " init";
    for (const NodeId v : r.p_init) out << " " << g.name(v);
    out << " fin";
    for (const NodeId v : r.p_fin) out << " " << g.name(v);
    out << "\n";
  }
}

}  // namespace chronus::io
