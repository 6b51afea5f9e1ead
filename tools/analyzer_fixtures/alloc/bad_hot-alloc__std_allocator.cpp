// Seeded: naming std::allocator does not route a container off the
// default heap — it is the default heap, spelled out.
#include <memory>
#include <vector>

namespace fixture {

int zero_row(int n) {
  std::vector<int, std::allocator<int>> row(static_cast<unsigned>(n), 0);
  return static_cast<int>(row.size());
}

}  // namespace fixture
