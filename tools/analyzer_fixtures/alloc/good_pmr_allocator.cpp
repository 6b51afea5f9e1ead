// Clean: a container whose template arguments name a polymorphic
// allocator draws from the memory resource its caller passes in, not from
// the default heap.
#include <memory_resource>
#include <vector>

namespace fixture {

int pooled_sum(std::pmr::memory_resource* pool) {
  std::vector<int, std::pmr::polymorphic_allocator<int>> row(pool);
  row.push_back(3);
  row.push_back(4);
  return row[0] + row[1];
}

}  // namespace fixture
