// The contract framework of the invariant firewall.
//
// Chronus' correctness rests on invariants that are cheap to state and
// expensive to rediscover after a silent break: demands and capacities are
// never negative, every TransitionState probe names a known flow and node,
// ledger releases balance reserves, schedules grow monotonically. These
// macros make the invariants executable at three build levels selected by
// the CHRONUS_CONTRACTS CMake option:
//
//   off    (CHRONUS_CONTRACT_LEVEL 0) — every macro compiles to nothing;
//          for benchmarking the raw algorithm cost.
//   cheap  (CHRONUS_CONTRACT_LEVEL 1, the default) — O(1) pre/post/
//          invariant checks are active; audit checks compile to nothing.
//   audit  (CHRONUS_CONTRACT_LEVEL 2) — additionally runs the expensive
//          CHRONUS_AUDIT_* checks (full-structure scans); the sanitizer
//          presets build at this level.
//
// A violated contract throws chronus::util::ContractViolation (a
// std::logic_error) carrying the expression, the kind of contract and the
// source location, so tests can assert on violations without death tests
// and services can fail one request instead of the whole process.
#pragma once

#include <stdexcept>
#include <string>

#ifndef CHRONUS_CONTRACT_LEVEL
#define CHRONUS_CONTRACT_LEVEL 1
#endif

namespace chronus::util {

class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* file,
                    long line, const std::string& note)
      : std::logic_error(format(kind, expr, file, line, note)),
        kind_(kind),
        expr_(expr),
        file_(file),
        line_(line) {}

  const char* kind() const { return kind_; }   ///< "precondition", ...
  const char* expr() const { return expr_; }   ///< the failed expression
  const char* file() const { return file_; }
  long line() const { return line_; }

 private:
  static std::string format(const char* kind, const char* expr,
                            const char* file, long line,
                            const std::string& note) {
    std::string out;
    out += kind;
    out += " violated: ";
    out += expr;
    out += " [";
    out += file;
    out += ":";
    out += std::to_string(line);
    out += "]";
    if (!note.empty()) {
      out += " — ";
      out += note;
    }
    return out;
  }

  const char* kind_;
  const char* expr_;
  const char* file_;
  long line_;
};

[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* file, long line,
                                         const std::string& note = {}) {
  throw ContractViolation(kind, expr, file, line, note);
}

/// Level active in this translation unit (0 off, 1 cheap, 2 audit).
inline constexpr int contract_level() { return CHRONUS_CONTRACT_LEVEL; }

}  // namespace chronus::util

// The macros take an optional trailing message: CHRONUS_EXPECTS(x > 0) or
// CHRONUS_EXPECTS(x > 0, "x is the demand and must be positive"). The
// message expression is only evaluated on failure.
#define CHRONUS_CONTRACT_IMPL_(kind, ...)                                     \
  CHRONUS_CONTRACT_SELECT_(__VA_ARGS__, CHRONUS_CONTRACT_MSG_,                \
                           CHRONUS_CONTRACT_NOMSG_)(kind, __VA_ARGS__)
#define CHRONUS_CONTRACT_SELECT_(a, b, which, ...) which
#define CHRONUS_CONTRACT_NOMSG_(kind, cond)                                   \
  do {                                                                        \
    if (!(cond))                                                              \
      ::chronus::util::contract_failed(kind, #cond, __FILE__, __LINE__);      \
  } while (false)
#define CHRONUS_CONTRACT_MSG_(kind, cond, msg)                                \
  do {                                                                        \
    if (!(cond))                                                              \
      ::chronus::util::contract_failed(kind, #cond, __FILE__, __LINE__,       \
                                       (msg));                                \
  } while (false)
#define CHRONUS_CONTRACT_OFF_(...)                                            \
  do {                                                                        \
  } while (false)

#if CHRONUS_CONTRACT_LEVEL >= 1
/// Precondition on a public API's arguments / observable state.
#define CHRONUS_EXPECTS(...) CHRONUS_CONTRACT_IMPL_("precondition", __VA_ARGS__)
/// Postcondition before returning from a public API.
#define CHRONUS_ENSURES(...) CHRONUS_CONTRACT_IMPL_("postcondition", __VA_ARGS__)
/// Internal consistency that must hold between operations.
#define CHRONUS_INVARIANT(...) CHRONUS_CONTRACT_IMPL_("invariant", __VA_ARGS__)
#else
#define CHRONUS_EXPECTS(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#define CHRONUS_ENSURES(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#define CHRONUS_INVARIANT(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#endif

#if CHRONUS_CONTRACT_LEVEL >= 2
/// Expensive (super-constant) variants, active only under audit builds:
/// whole-schedule monotonicity scans, full ledger balance recomputation.
#define CHRONUS_AUDIT_EXPECTS(...) \
  CHRONUS_CONTRACT_IMPL_("audit precondition", __VA_ARGS__)
#define CHRONUS_AUDIT_ENSURES(...) \
  CHRONUS_CONTRACT_IMPL_("audit postcondition", __VA_ARGS__)
#define CHRONUS_AUDIT_INVARIANT(...) \
  CHRONUS_CONTRACT_IMPL_("audit invariant", __VA_ARGS__)
#else
#define CHRONUS_AUDIT_EXPECTS(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#define CHRONUS_AUDIT_ENSURES(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#define CHRONUS_AUDIT_INVARIANT(...) CHRONUS_CONTRACT_OFF_(__VA_ARGS__)
#endif
