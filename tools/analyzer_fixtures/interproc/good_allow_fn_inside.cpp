// Clean: function-scope acknowledgement, marker inside the body. Any
// marker line within the definition span covers the whole function.
#include <mutex>

namespace fixture {

int take_next(int fd) { return accept(fd, nullptr, nullptr); }

class Listener {
 public:
  void serve_one(int fd) {
    // chronus-analyzer: allow-fn(lock-across-blocking) the listener is
    // single-threaded; the lock only fences the stats reader.
    std::lock_guard<std::mutex> guard(mu_);
    last_ = take_next(fd);
    ++served_;
  }

 private:
  std::mutex mu_;
  int last_ = -1;
  long served_ = 0;
};

}  // namespace fixture
