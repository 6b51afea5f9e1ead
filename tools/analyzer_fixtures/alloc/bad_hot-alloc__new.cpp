// Seeded: a bare `new` expression on a hot path must fire [hot-alloc].
// (Placement new allocates nothing and stays silent — see
// good_placement_new.cpp.)
#include <cstddef>

namespace fixture {

int* scratch_row(std::size_t n) {
  int* row = new int[n];
  for (std::size_t i = 0; i < n; ++i) row[i] = 0;
  return row;
}

}  // namespace fixture
