// Clean: function-scope acknowledgement, block-comment form directly
// above the definition head.
#include <chrono>
#include <mutex>
#include <thread>

namespace fixture {

void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

class Registry {
 public:
  /* chronus-analyzer: allow-fn(lock-across-blocking)
     Only shutdown takes this path, after every reader has left; the
     millisecond settle under the lock stalls no one. */
  void close() {
    std::lock_guard<std::mutex> guard(mu_);
    open_ = false;
    settle();
  }

 private:
  std::mutex mu_;
  bool open_ = true;
};

}  // namespace fixture
