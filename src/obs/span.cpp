#include "obs/span.hpp"

#include "obs/metrics.hpp"

namespace chronus::obs {

namespace {

thread_local const Span* t_current = nullptr;

}  // namespace

const Span* Span::current() noexcept { return t_current; }

Span::Span(const char* name, bool root) : enabled_(registry() != nullptr) {
  if (!enabled_) return;
  if (!root && t_current != nullptr && !t_current->path_.empty()) {
    path_.reserve(t_current->path_.size() + 1 + std::char_traits<char>::length(name));
    path_ = t_current->path_;
    path_ += '.';
    path_ += name;
  } else {
    path_ = name;
  }
  parent_ = t_current;
  t_current = this;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!enabled_) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  t_current = parent_;
  // The registry may have been swapped out mid-span (tests that install a
  // ScopedMetrics inside a span); record into whichever is live now — a
  // null registry simply drops the sample.
  if (MetricsRegistry* r = registry()) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
    r->histogram("span." + path_ + "_wall_us").observe(us);
    r->counter("span." + path_ + ".calls").add(1);
  }
}

}  // namespace chronus::obs
