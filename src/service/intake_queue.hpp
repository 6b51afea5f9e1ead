// The bounded request intake between the rpc sessions and the planner.
//
// rpc::Server's sessions push from the reactor thread and its planner
// thread drains at round boundaries; neither side ever blocks on the
// queue, so backpressure is one bound:
//
//   * try_push is answered kDeferred once the depth reaches `capacity`.
//     Nothing is queued; the session surfaces the deferral to its client
//     (an explicit `deferred` wire reply) and stops reading that
//     connection until the planner takes the next batch, which pushes
//     further arrivals into the kernel socket buffers. The client retries.
//   * take_batch drains whole batches, never single elements, matching
//     the epoch semantics of UpdateService::run.
//
// Keep `capacity` at or below the degradation ladder's `defer_enter`
// (DESIGN.md §13) so wire-level deferral engages before the dispatcher
// starts shedding admitted work.
#pragma once

#include <cstddef>
#include <vector>

#include "service/request.hpp"
#include "util/thread_annotations.hpp"

namespace chronus::service {

class IntakeQueue {
 public:
  enum class Push {
    kAccepted,  ///< queued
    kDeferred,  ///< backpressure: the depth is at capacity — retry later
  };

  /// `capacity` is the depth at which try_push defers; must be positive.
  explicit IntakeQueue(std::size_t capacity);

  /// Non-blocking submit.
  Push try_push(UpdateRequest req) CHRONUS_EXCLUDES(mu_);

  /// Drains everything currently queued (possibly nothing).
  std::vector<UpdateRequest> take_batch() CHRONUS_EXCLUDES(mu_);

  std::size_t depth() const CHRONUS_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;

  mutable util::Mutex mu_;
  std::vector<UpdateRequest> q_ CHRONUS_GUARDED_BY(mu_);
};

}  // namespace chronus::service
