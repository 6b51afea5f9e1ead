// Clean: container types in positions that construct nothing — reference
// and pointer parameters, nested names, function declarations and
// trailing return types — allocate nothing at that site.
#include <vector>

namespace fixture {

std::vector<int> load_row(int width);  // declaration, not an object

int sum_row(const std::vector<int>& row) {  // reference parameter
  int total = 0;
  for (const int v : row) total += v;
  return total;
}

std::vector<int>::size_type row_width(const std::vector<int>* row) {
  return row->size();  // nested-name return type, pointer parameter
}

auto reload(int width) -> std::vector<int> {  // trailing return type
  return load_row(width);
}

}  // namespace fixture
