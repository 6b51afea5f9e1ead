// Clean: placement new constructs into memory the caller already owns,
// so it reaches no allocator; the header name in `#include <new>` is not
// a `new` expression either.
#include <new>

namespace fixture {

int construct_in_place(void* slot) {
  int* value = new (slot) int(7);
  return *value;
}

}  // namespace fixture
