// Clean: function-scope acknowledgement, marker on the line above the
// definition head. The allow-fn form suppresses the named rule for the
// whole function body, not just one line.
#include <mutex>

namespace fixture {

int await_peer(int fd) { return accept(fd, nullptr, nullptr); }

class BootGate {
 public:
  // Boot runs before any other thread exists, so nothing contends for mu_.
  // chronus-analyzer: allow-fn(lock-across-blocking)
  void boot(int fd) {
    std::lock_guard<std::mutex> guard(mu_);
    peer_ = await_peer(fd);
  }

 private:
  std::mutex mu_;
  int peer_ = -1;
};

}  // namespace fixture
