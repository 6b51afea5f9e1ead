// Clean: the owned-arena idiom (build columns once, keep views). An
// object that owns its arena as a member may cache pointers carved from
// it in other members — pointer and storage share one lifetime.
#include <cstddef>

namespace fixture {

class SchedulePlan {
 public:
  void build(std::size_t n) {
    slots_ = static_cast<int*>(arena_.allocate(n * sizeof(int), alignof(int)));
    width_ = n;
  }

  std::size_t width() const { return width_; }

 private:
  util::Arena arena_;
  int* slots_ = nullptr;
  std::size_t width_ = 0;
};

}  // namespace fixture
