#include "io/scenario_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/parse_number.hpp"

namespace chronus::io {

using sim::ChaosPhase;
using sim::ChaosScenario;
using sim::FlapSpec;
using sim::OutageSpec;
using sim::SimTime;
using util::to_number;

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {"", token};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

/// Durations/instants: a number with an optional us/ms/s suffix
/// (microseconds when bare), rounded to a whole microsecond.
SimTime parse_time(const std::string& value) {
  std::string_view number = value;
  double unit = 1.0;
  if (number.ends_with("us")) {
    number.remove_suffix(2);
  } else if (number.ends_with("ms")) {
    number.remove_suffix(2);
    unit = static_cast<double>(sim::kMillisecond);
  } else if (number.ends_with("s")) {
    number.remove_suffix(1);
    unit = static_cast<double>(sim::kSecond);
  }
  const double x = to_number<double>(number) * unit;
  // llround is undefined past the SimTime range.
  if (!(std::fabs(x) < std::ldexp(1.0, 63))) {
    throw std::invalid_argument("time out of range: " + value);
  }
  return static_cast<SimTime>(std::llround(x));
}

}  // namespace

ChaosScenario read_scenario(std::istream& in) {
  ChaosScenario scenario;
  bool saw_header = false;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string cmd;
    if (!(line >> cmd)) continue;

    if (cmd == "scenario") {
      if (saw_header) fail(line_no, "duplicate scenario header");
      saw_header = true;
      if (!(line >> scenario.name)) fail(line_no, "scenario needs a name");
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "seed") {
            scenario.seed = to_number<std::uint64_t>(value);
          } else {
            fail(line_no, "unknown scenario attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      continue;
    }
    if (!saw_header) fail(line_no, "file must open with a scenario header");

    if (cmd == "fault") {
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "drop") {
            scenario.base.drop_rate = to_number<double>(value);
          } else if (key == "duplicate") {
            scenario.base.duplicate_rate = to_number<double>(value);
          } else if (key == "reorder") {
            scenario.base.reorder_rate = to_number<double>(value);
          } else if (key == "reject") {
            scenario.base.reject_rate = to_number<double>(value);
          } else if (key == "straggler") {
            scenario.base.straggler_rate = to_number<double>(value);
          } else if (key == "straggler_mult") {
            scenario.base.straggler_multiplier = to_number<double>(value);
          } else if (key == "unresponsive") {
            scenario.base.unresponsive_rate = to_number<double>(value);
          } else if (key == "unresponsive_dur") {
            scenario.base.unresponsive_duration = parse_time(value);
          } else if (key == "drift") {
            scenario.base.clock_drift_stddev = parse_time(value);
          } else {
            fail(line_no, "unknown fault attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
    } else if (cmd == "phase") {
      ChaosPhase phase;
      if (!(line >> phase.name)) fail(line_no, "phase needs a name");
      bool saw_from = false, saw_until = false;
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "from") {
            phase.from = parse_time(value);
            saw_from = true;
          } else if (key == "until") {
            phase.until = parse_time(value);
            saw_until = true;
          } else if (key == "drop") {
            phase.drop_rate = to_number<double>(value);
          } else if (key == "duplicate") {
            phase.duplicate_rate = to_number<double>(value);
          } else if (key == "reorder") {
            phase.reorder_rate = to_number<double>(value);
          } else if (key == "reject") {
            phase.reject_rate = to_number<double>(value);
          } else if (key == "straggler") {
            phase.straggler_rate = to_number<double>(value);
          } else if (key == "straggler_mult") {
            phase.straggler_multiplier = to_number<double>(value);
          } else if (key == "unresponsive") {
            phase.unresponsive_rate = to_number<double>(value);
          } else if (key == "unresponsive_dur") {
            phase.unresponsive_duration = parse_time(value);
          } else if (key == "skew_begin") {
            phase.skew_begin = parse_time(value);
          } else if (key == "skew_end") {
            phase.skew_end = parse_time(value);
          } else if (key == "surge") {
            phase.arrival_surge = to_number<double>(value);
          } else {
            fail(line_no, "unknown phase attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      if (!saw_from || !saw_until) {
        fail(line_no, "phase needs from= and until=");
      }
      scenario.phases.push_back(std::move(phase));
    } else if (cmd == "flap") {
      if (scenario.phases.empty()) fail(line_no, "flap before any phase");
      FlapSpec flap;
      bool saw_sw = false, saw_period = false, saw_down = false;
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "sw") {
            flap.sw = to_number<sim::SwitchId>(value);
            saw_sw = true;
          } else if (key == "period") {
            flap.period = parse_time(value);
            saw_period = true;
          } else if (key == "down") {
            flap.down = parse_time(value);
            saw_down = true;
          } else if (key == "offset") {
            flap.offset = parse_time(value);
          } else {
            fail(line_no, "unknown flap attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      if (!saw_sw || !saw_period || !saw_down) {
        fail(line_no, "flap needs sw=, period= and down=");
      }
      scenario.phases.back().flaps.push_back(flap);
    } else if (cmd == "outage") {
      if (scenario.phases.empty()) fail(line_no, "outage before any phase");
      OutageSpec outage;
      bool saw_sw = false, saw_from = false, saw_until = false;
      std::string token;
      while (line >> token) {
        const auto [key, value] = split_kv(token);
        try {
          if (key == "sw") {
            outage.sw = to_number<sim::SwitchId>(value);
            saw_sw = true;
          } else if (key == "from") {
            outage.from = parse_time(value);
            saw_from = true;
          } else if (key == "until") {
            outage.until = parse_time(value);
            saw_until = true;
          } else {
            fail(line_no, "unknown outage attribute: " + token);
          }
        } catch (const std::invalid_argument&) {
          fail(line_no, "bad number in: " + token);
        }
      }
      if (!saw_sw || !saw_from || !saw_until) {
        fail(line_no, "outage needs sw=, from= and until=");
      }
      scenario.phases.back().outages.push_back(outage);
    } else {
      fail(line_no, "unknown directive: " + cmd);
    }
  }
  if (!saw_header) fail(line_no, "empty scenario file");
  scenario.validate();
  return scenario;
}

ChaosScenario read_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_scenario(in);
}

void write_scenario(std::ostream& out, const ChaosScenario& scenario) {
  // Full round-trip precision: a written scenario must reload to the exact
  // same rates, or replayed campaigns diverge from the original.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "scenario " << scenario.name;
  if (scenario.seed != 0) out << " seed=" << scenario.seed;
  out << "\n";
  const sim::FaultModel& base = scenario.base;
  if (base.enabled()) {
    out << "fault";
    if (base.drop_rate > 0) out << " drop=" << base.drop_rate;
    if (base.duplicate_rate > 0) out << " duplicate=" << base.duplicate_rate;
    if (base.reorder_rate > 0) out << " reorder=" << base.reorder_rate;
    if (base.reject_rate > 0) out << " reject=" << base.reject_rate;
    if (base.straggler_rate > 0) {
      out << " straggler=" << base.straggler_rate
          << " straggler_mult=" << base.straggler_multiplier;
    }
    if (base.unresponsive_rate > 0) {
      out << " unresponsive=" << base.unresponsive_rate
          << " unresponsive_dur=" << base.unresponsive_duration;
    }
    if (base.clock_drift_stddev > 0) {
      out << " drift=" << base.clock_drift_stddev;
    }
    out << "\n";
  }
  for (const ChaosPhase& p : scenario.phases) {
    out << "phase " << p.name << " from=" << p.from << " until=" << p.until;
    if (p.drop_rate > 0) out << " drop=" << p.drop_rate;
    if (p.duplicate_rate > 0) out << " duplicate=" << p.duplicate_rate;
    if (p.reorder_rate > 0) out << " reorder=" << p.reorder_rate;
    if (p.reject_rate > 0) out << " reject=" << p.reject_rate;
    if (p.straggler_rate > 0) out << " straggler=" << p.straggler_rate;
    if (p.straggler_multiplier > 0) {
      out << " straggler_mult=" << p.straggler_multiplier;
    }
    if (p.unresponsive_rate > 0) {
      out << " unresponsive=" << p.unresponsive_rate;
    }
    if (p.unresponsive_duration > 0) {
      out << " unresponsive_dur=" << p.unresponsive_duration;
    }
    if (p.skew_begin > 0) out << " skew_begin=" << p.skew_begin;
    if (p.skew_end > 0) out << " skew_end=" << p.skew_end;
    if (p.arrival_surge != 1.0) out << " surge=" << p.arrival_surge;
    out << "\n";
    for (const FlapSpec& fl : p.flaps) {
      out << "flap sw=" << fl.sw << " period=" << fl.period
          << " down=" << fl.down;
      if (fl.offset > 0) out << " offset=" << fl.offset;
      out << "\n";
    }
    for (const OutageSpec& o : p.outages) {
      out << "outage sw=" << o.sw << " from=" << o.from
          << " until=" << o.until << "\n";
    }
  }
}

}  // namespace chronus::io
