#include "dht/chord_node.hpp"

#include <algorithm>

namespace hkws::dht {

ChordNode::ChordNode(RingId id, sim::EndpointId endpoint, int finger_count)
    : OverlayNode(id, endpoint) {
  fingers_.resize(static_cast<std::size_t>(finger_count));
}

std::optional<RingId> ChordNode::successor() const {
  if (successors_.empty()) return std::nullopt;
  return successors_.front();
}

void ChordNode::set_successor_list(std::vector<RingId> list) {
  successors_ = std::move(list);
}

void ChordNode::remove_successor(RingId dead) {
  std::erase(successors_, dead);
}

void ChordNode::set_finger(int i, std::optional<RingId> node) {
  fingers_.at(static_cast<std::size_t>(i)) = node;
}

}  // namespace hkws::dht
