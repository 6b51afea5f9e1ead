// Hierarchical trace spans. A Span measures the wall-clock time of a
// lexical scope on the monotonic clock and records it into the installed
// MetricsRegistry as two instruments derived from the span's dotted path:
//
//   span.<path>_wall_us   histogram of scope durations (wall time, masked
//                         in deterministic comparisons)
//   span.<path>.calls     counter of scope entries (logical)
//
// Paths nest through a thread-local stack: a Span opened while another is
// active on the same thread gets the parent's path as a prefix, so
// CHRONUS_SPAN("serve") > CHRONUS_SPAN("greedy") records under
// "span.serve.greedy_wall_us". Nesting never crosses threads, and
// Span::root starts a fresh path on the current one: the service's jobs
// record under "workerpool.job..." whatever span the dispatcher holds.
//
// Overhead contract: when no registry is installed, constructing a Span is
// one relaxed pointer load and a branch — no clock read, no string work.
// All timing in library code goes through spans (or util::Stopwatch inside
// src/util); chronus_lint's raw-chrono rule enforces this.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace chronus::obs {

class Span {
 public:
  /// `name` must outlive the span (string literals in practice).
  explicit Span(const char* name) : Span(name, /*root=*/false) {}

  /// A span whose path is `name` alone, as if no span were active on this
  /// thread; the enclosing span is current again once it ends.
  static Span root(const char* name) { return Span(name, /*root=*/true); }

  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Dotted path including enclosing spans on this thread; empty when the
  /// span is disabled (no registry installed at construction).
  const std::string& path() const noexcept { return path_; }

  /// The innermost active span on the calling thread, or null.
  static const Span* current() noexcept;

 private:
  Span(const char* name, bool root);

  bool enabled_;
  std::string path_;
  const Span* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace chronus::obs

// Scope-timing macro: CHRONUS_SPAN("greedy.schedule"); the trailing
// __LINE__ paste lets two spans coexist in one scope.
#define CHRONUS_SPAN_CAT2(a, b) a##b
#define CHRONUS_SPAN_CAT(a, b) CHRONUS_SPAN_CAT2(a, b)
#define CHRONUS_SPAN(name) \
  const ::chronus::obs::Span CHRONUS_SPAN_CAT(chronus_span_, __LINE__)(name)
