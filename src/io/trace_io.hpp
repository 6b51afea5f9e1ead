// Plain-text serialization of service request traces, so `chronus_cli
// serve` and the bench harnesses can replay recorded (or generated)
// workloads without writing C++.
//
// A trace file opens with the shared topology (same node/link directives
// as the instance format) followed by one `request` line per arrival:
//
//   # topology
//   node A                        # optional; links auto-create nodes
//   link A B cap=4 delay=1
//   link C D cap=4 delay=1
//   ...
//   # arrivals (times in microseconds, demand in capacity units); each
//   # request is a single line:
//   request 0 arrival=0 demand=1.0 deadline=60000000 priority=2
//       init s0 A B t0 fin s0 C D t0
//
// Attributes may appear in any order between the id and the `init`
// keyword; `deadline` (absolute, 0 = none), `priority` and `name` are
// optional. `arrival` must lie in [0, service::kMaxArrival]. The `init` node list runs until the `fin` keyword, which runs
// to end of line. Round-trips with write_trace.
#pragma once

#include <iosfwd>
#include <string>

#include "service/service.hpp"

namespace chronus::io {

/// Parses a trace; throws std::runtime_error with a line number on
/// malformed input (unknown directives, duplicate ids, bad paths, an
/// arrival outside [0, service::kMaxArrival]).
service::ServiceTrace read_trace(std::istream& in);
service::ServiceTrace read_trace_file(const std::string& path);

/// Writes the trace in the same format (round-trips with read_trace).
void write_trace(std::ostream& out, const service::ServiceTrace& trace);

}  // namespace chronus::io
