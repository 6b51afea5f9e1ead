#include "io/instance_io.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse_number.hpp"

namespace chronus::io {

using net::Capacity;
using net::Delay;
using net::Demand;
using net::Graph;
using net::Link;
using net::LinkId;
using net::NodeId;
using net::Path;
using net::UpdateInstance;
using util::parse_number;
using util::to_number;

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

/// "cap=1.5" -> ("cap", "1.5"); plain tokens map to ("", token).
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {"", token};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

struct FlowBlock {
  std::string name;
  Demand demand{1.0};
  std::vector<NodeId> init_nodes;
  std::vector<NodeId> fin_nodes;
  std::vector<std::pair<NodeId, NodeId>> redirects;
};

}  // namespace

std::vector<UpdateInstance> read_flows(std::istream& in) {
  Graph g;
  std::map<std::string, NodeId> by_name;
  const auto node_of = [&](const std::string& name) {
    const auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    const NodeId id = g.add_node(name);
    by_name.emplace(name, id);
    return id;
  };

  std::vector<FlowBlock> blocks;
  const auto current = [&]() -> FlowBlock& {
    if (blocks.empty()) {
      blocks.emplace_back();  // implicit unnamed flow (single-flow format)
    }
    return blocks.back();
  };

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
            cap = to_number<double>(value);
          } else if (key == "delay") {
            delay = to_number<Delay>(value);
          } else {
            fail(line_no, "unknown link attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      // Sequence the lookups: argument evaluation order is unspecified,
      // and node ids should follow first appearance in the file.
      const NodeId u = node_of(from);
      const NodeId v = node_of(to);
      try {
        g.add_link(u, v, Capacity{cap}, delay);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
    } else if (cmd == "flow") {
      FlowBlock block;
      if (!(line >> block.name)) fail(line_no, "flow needs a name");
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        if (key != "demand") fail(line_no, "unknown flow attribute: " + token);
        try {
          block.demand = Demand{to_number<double>(value)};
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      // A leading implicit block that never received content is replaced.
      if (blocks.size() == 1 && blocks[0].name.empty() &&
          blocks[0].init_nodes.empty() && blocks[0].fin_nodes.empty()) {
        blocks.clear();
      }
      blocks.push_back(std::move(block));
    } else if (cmd == "demand") {
      std::string token;
      if (!(line >> token)) fail(line_no, "demand needs a number");
      const auto amount = parse_number<double>(token);
      if (!amount) fail(line_no, "bad number in: " + token);
      current().demand = Demand{*amount};
    } else if (cmd == "init" || cmd == "fin") {
      std::vector<NodeId>& nodes =
          cmd == "init" ? current().init_nodes : current().fin_nodes;
      if (!nodes.empty()) fail(line_no, cmd + " given twice for this flow");
      std::string name;
      while (line >> name) nodes.push_back(node_of(name));
      if (nodes.size() < 2) fail(line_no, cmd + " needs at least two switches");
    } else if (cmd == "redirect") {
      std::string from, to;
      if (!(line >> from >> to)) fail(line_no, "redirect needs two switches");
      const NodeId u = node_of(from);
      const NodeId v = node_of(to);
      current().redirects.emplace_back(u, v);
    } else {
      fail(line_no, "unknown directive: " + cmd);
    }
  }

  if (blocks.empty()) {
    throw std::runtime_error("instance needs both init and fin paths");
  }
  std::vector<UpdateInstance> flows;
  flows.reserve(blocks.size());
  for (const FlowBlock& block : blocks) {
    const std::string label =
        block.name.empty() ? "the flow" : "flow " + block.name;
    if (block.init_nodes.empty() || block.fin_nodes.empty()) {
      throw std::runtime_error(label + " needs both init and fin paths");
    }
    try {
      UpdateInstance inst = UpdateInstance::from_paths(
          g, Path(block.init_nodes), Path(block.fin_nodes), block.demand);
      for (const auto& [from, to] : block.redirects) {
        inst.set_new_next(from, to);
      }
      flows.push_back(std::move(inst));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(label + ": " + e.what());
    }
  }
  return flows;
}

std::vector<UpdateInstance> read_flows_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_flows(in);
}

UpdateInstance read_instance(std::istream& in) {
  auto flows = read_flows(in);
  if (flows.size() != 1) {
    throw std::runtime_error("expected a single flow, found " +
                             std::to_string(flows.size()) +
                             " (use the multi-flow API)");
  }
  return std::move(flows.front());
}

UpdateInstance read_instance_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_instance(in);
}

void write_instance(std::ostream& out, const UpdateInstance& inst) {
  const Graph& g = inst.graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "node " << g.name(v) << "\n";
  }
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const Link& l = g.link(id);
    out << "link " << g.name(l.src) << " " << g.name(l.dst) << " cap="
        << l.capacity << " delay=" << l.delay << "\n";
  }
  out << "demand " << inst.demand() << "\n";
  out << "init";
  for (const NodeId v : inst.p_init()) out << " " << g.name(v);
  out << "\nfin ";
  for (const NodeId v : inst.p_fin()) out << " " << g.name(v);
  out << "\n";
  // Redirects: final-config rules that differ from both paths' defaults.
  for (const NodeId v : inst.p_init()) {
    if (inst.p_fin().contains(v)) continue;
    const auto nn = inst.new_next(v);
    const auto on = inst.old_next(v);
    if (nn && on && *nn != *on) {
      out << "redirect " << g.name(v) << " " << g.name(*nn) << "\n";
    }
  }
}

timenet::UpdateSchedule read_schedule(std::istream& in,
                                      const UpdateInstance& inst) {
  std::map<std::string, NodeId> by_name;
  for (NodeId v = 0; v < inst.graph().node_count(); ++v) {
    by_name.emplace(inst.graph().name(v), v);
  }
  timenet::UpdateSchedule sched;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string cmd;
    if (!(line >> cmd)) continue;
    if (cmd != "update") fail(line_no, "expected 'update', got " + cmd);
    std::string name, token;
    if (!(line >> name >> token)) fail(line_no, "update needs <switch> <time>");
    const auto t = parse_number<std::int64_t>(token);
    if (!t) fail(line_no, "bad number in: " + token);
    const auto it = by_name.find(name);
    if (it == by_name.end()) fail(line_no, "unknown switch: " + name);
    sched.set(it->second, timenet::TimePoint{*t});
  }
  return sched;
}

void write_schedule(std::ostream& out, const UpdateInstance& inst,
                    const timenet::UpdateSchedule& sched) {
  for (const auto& [t, switches] : sched.by_time()) {
    for (const NodeId v : switches) {
      out << "update " << inst.graph().name(v) << " " << t << "\n";
    }
  }
}

}  // namespace chronus::io
