// Seeded: make_unique / make_shared each cost one heap allocation per
// call; inside the planner loops that is churn per step or per probe.
#include <memory>

namespace fixture {

struct Node {
  int id = 0;
};

std::unique_ptr<Node> fresh_node(int id) {
  auto node = std::make_unique<Node>();
  node->id = id;
  return node;
}

std::shared_ptr<Node> shared_node(int id) {
  auto node = std::make_shared<Node>();
  node->id = id;
  return node;
}

}  // namespace fixture
