// Seeded: ostringstream key-building is the classic hot-loop allocator
// churn (every str() is a fresh heap string) — appending into one reused
// std::string is the replacement.
#include <sstream>
#include <string>

namespace fixture {

std::string memo_key(int a, int b) {
  std::ostringstream os;
  os << a << ':' << b;
  return os.str();
}

}  // namespace fixture
