#include "service/intake_queue.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace chronus::service {

IntakeQueue::IntakeQueue(std::size_t capacity) : capacity_(capacity) {
  CHRONUS_EXPECTS(capacity > 0, "intake capacity must be positive");
}

IntakeQueue::Push IntakeQueue::try_push(UpdateRequest req) {
  std::size_t new_depth = 0;
  {
    util::MutexLock lock(mu_);
    if (q_.size() >= capacity_) {
      obs::add("service.intake_deferred");
      return Push::kDeferred;
    }
    q_.push_back(std::move(req));
    new_depth = q_.size();
  }
  obs::add("service.intake_accepted");
  obs::gauge_set("service.intake_depth", static_cast<std::int64_t>(new_depth));
  return Push::kAccepted;
}

std::vector<UpdateRequest> IntakeQueue::take_batch() {
  std::vector<UpdateRequest> batch;
  {
    util::MutexLock lock(mu_);
    batch.swap(q_);
  }
  if (!batch.empty()) {
    obs::add("service.intake_batches");
    obs::gauge_set("service.intake_depth", 0);
  }
  return batch;
}

std::size_t IntakeQueue::depth() const {
  util::MutexLock lock(mu_);
  return q_.size();
}

}  // namespace chronus::service
