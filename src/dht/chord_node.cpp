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

std::optional<RingId> ChordNode::closest_preceding(
    RingId key, const RingSpace& space,
    const std::function<bool(RingId)>& alive) const {
  // Scan fingers and the successor list for the live link closest to (but
  // strictly before) the key. Local knowledge only. Liveness is the costly
  // test and a pure filter, so it runs last, on candidates that would
  // otherwise become the best.
  std::optional<RingId> best;
  auto consider = [&](RingId candidate) {
    if (candidate == id() || !space.in_interval_oo(candidate, id(), key))
      return;
    if (best && !space.in_interval_oo(*best, id(), candidate)) return;
    if (alive(candidate)) best = candidate;
  };
  for (auto it = fingers_.rbegin(); it != fingers_.rend(); ++it)
    if (it->has_value()) consider(**it);
  for (RingId s : successors_) consider(s);
  return best;
}

}  // namespace hkws::dht
