// Clean: member calls are not linked across the program. record() calls
// `.add(1)` on whatever counter() returns, and a lexer cannot know that
// receiver's type. Linked by the bare name `add`, the call would reach
// ClassRun::add, whose flush() would reach Driver::flush and its send(2),
// and the lock held around record() would read as lock-across-blocking
// through record -> ClassRun::add -> Driver::flush -> send.
#include <mutex>

namespace fixture {

class ClassRun {
 public:
  void add(int n) {
    pending_ += n;
    flush();
  }
  void flush() {
    total_ += pending_;
    pending_ = 0;
  }

 private:
  int pending_ = 0;
  int total_ = 0;
};

class Driver {
 public:
  void flush() { ::send(fd_, buf_, len_, 0); }

 private:
  int fd_ = -1;
  char buf_[64] = {};
  unsigned long len_ = 0;
};

struct Counter;
struct Registry {
  Counter& counter(const char* name);
};

void record(Registry* r) { r->counter("x").add(1); }

class Service {
 public:
  void on_request(Registry* r) {
    std::lock_guard<std::mutex> guard(mu_);
    record(r);
  }

 private:
  std::mutex mu_;
};

}  // namespace fixture
