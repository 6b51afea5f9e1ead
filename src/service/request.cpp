#include "service/request.hpp"

#include <algorithm>
#include <sstream>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace chronus::service {

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kPending:
      return "pending";
    case RequestStatus::kCompleted:
      return "completed";
    case RequestStatus::kRejectedInfeasible:
      return "rejected-infeasible";
    case RequestStatus::kRejectedDeadline:
      return "rejected-deadline";
    case RequestStatus::kRejectedCapacity:
      return "rejected-capacity";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kShedOverload:
      return "shed-overload";
    case RequestStatus::kWatchdogTimeout:
      return "watchdog-timeout";
  }
  return "?";
}

const char* to_string(DegradationMode m) {
  switch (m) {
    case DegradationMode::kFull:
      return "full";
    case DegradationMode::kDefer:
      return "defer";
    case DegradationMode::kShed:
      return "shed";
  }
  return "?";
}

void ServiceReport::finalize() {
  completed = failed = 0;
  rejected_infeasible = rejected_deadline = rejected_capacity = 0;
  shed = watchdog_cancelled = 0;
  faults_injected = 0;
  violations = 0;
  makespan = 0;
  for (const RequestRecord& r : records) {
    switch (r.status) {
      case RequestStatus::kCompleted:
        ++completed;
        break;
      case RequestStatus::kFailed:
        ++failed;
        break;
      case RequestStatus::kRejectedInfeasible:
        ++rejected_infeasible;
        break;
      case RequestStatus::kRejectedDeadline:
        ++rejected_deadline;
        break;
      case RequestStatus::kRejectedCapacity:
        ++rejected_capacity;
        break;
      case RequestStatus::kShedOverload:
        ++shed;
        break;
      case RequestStatus::kWatchdogTimeout:
        ++watchdog_cancelled;
        break;
      case RequestStatus::kPending:
        break;
    }
    faults_injected += r.faults;
    violations += r.violations;
    makespan = std::max(makespan, r.completed);
  }
}

double ServiceReport::throughput_hz() const {
  if (makespan <= 0) return 0.0;
  return static_cast<double>(completed) /
         (static_cast<double>(makespan) / static_cast<double>(sim::kSecond));
}

double ServiceReport::mean_latency() const {
  util::Summary s;
  for (const RequestRecord& r : records) {
    if (r.status == RequestStatus::kCompleted) {
      s.add(static_cast<double>(r.latency()));
    }
  }
  return s.empty() ? 0.0 : s.mean();
}

double ServiceReport::latency_percentile(double p) const {
  util::Summary s;
  for (const RequestRecord& r : records) {
    if (r.status == RequestStatus::kCompleted) {
      s.add(static_cast<double>(r.latency()));
    }
  }
  return s.empty() ? 0.0 : s.percentile(p);
}

std::string ServiceReport::to_string() const {
  std::ostringstream out;
  out << "requests " << total() << ": " << completed << " completed, "
      << failed << " failed, " << rejected() << " rejected ("
      << rejected_infeasible << " infeasible, " << rejected_deadline
      << " deadline, " << rejected_capacity << " capacity, " << shed
      << " shed, " << watchdog_cancelled << " watchdog)\n";
  if (!health_log.empty() || faults_injected > 0) {
    out << "degradation: " << health_log.size() << " health transition(s), "
        << faults_injected << " fault(s) injected\n";
    for (const auto& [t, mode] : health_log) {
      out << "  t=" << util::fmt(static_cast<double>(t) / sim::kSecond, 3)
          << "s -> " << service::to_string(mode) << "\n";
    }
  }
  out << "admission rounds " << admission_rounds << ", peak link utilization "
      << util::fmt(100.0 * peak_utilization, 1) << "%\n";
  out << "makespan " << util::fmt(static_cast<double>(makespan) / sim::kSecond,
                                  3)
      << " s, throughput " << util::fmt(throughput_hz(), 2)
      << " req/s, latency mean " << util::fmt(mean_latency() / sim::kSecond, 3)
      << " s / p95 " << util::fmt(latency_percentile(95) / sim::kSecond, 3)
      << " s\n";
  out << "verifier violations " << violations << "\n";

  util::Table table({"id", "status", "arrival ms", "wait ms", "latency ms",
                     "defers", "span", "retries", "verified"});
  for (const RequestRecord& r : records) {
    const bool done = r.status == RequestStatus::kCompleted ||
                      r.status == RequestStatus::kFailed;
    table.add_row(
        {std::to_string(r.id), service::to_string(r.status),
         util::fmt(static_cast<double>(r.arrival) / sim::kMillisecond, 1),
         done ? util::fmt(static_cast<double>(r.wait()) / sim::kMillisecond, 1)
              : "-",
         done ? util::fmt(static_cast<double>(r.latency()) / sim::kMillisecond,
                          1)
              : "-",
         std::to_string(r.defers),
         done ? std::to_string(r.plan_span) : "-",
         done ? std::to_string(r.exec_retries) : "-",
         done ? (r.plan_verified && r.run_verified ? "clean" : "VIOLATION")
              : "-"});
  }
  out << table.to_string();
  return out.str();
}

std::string ServiceReport::digest() const {
  std::ostringstream out;
  for (const RequestRecord& r : records) {
    out << r.id << '|' << service::to_string(r.status) << '|' << r.arrival
        << '|' << r.admitted << '|' << r.completed << '|' << r.defers << '|'
        << r.plan_span << '|' << r.exec_duration << '|' << r.exec_retries
        << '|' << r.plan_verified << '|' << r.run_verified << '|'
        << r.violations;
    // Ladder fields are appended only when a campaign touched the request,
    // so clean-run digests stay byte-identical to the pre-ladder format.
    if (r.faults != 0 || r.degradation != DegradationMode::kFull) {
      out << '|' << service::to_string(r.degradation) << '|' << r.faults;
    }
    out << '\n';
  }
  out << "rounds=" << admission_rounds << " violations=" << violations
      << '\n';
  for (const auto& [t, mode] : health_log) {
    out << "health|" << t << '|' << service::to_string(mode) << '\n';
  }
  return out.str();
}

}  // namespace chronus::service
