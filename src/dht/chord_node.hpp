// Chord-specific per-peer routing state: successor list, predecessor, and
// finger table. The DOLR reference store lives in the OverlayNode base.
// Nodes are passive state holders; routing and maintenance logic lives in
// ChordNetwork, which manipulates nodes only through information a real
// peer would have locally.
#pragma once

#include <optional>
#include <vector>

#include "dht/overlay_node.hpp"

namespace hkws::dht {

class ChordNode final : public OverlayNode {
 public:
  ChordNode(RingId id, sim::EndpointId endpoint, int finger_count);

  // --- Ring links -----------------------------------------------------

  /// First entry of the successor list (this node's successor).
  /// Empty only before the node has joined a ring.
  std::optional<RingId> successor() const;

  const std::vector<RingId>& successor_list() const noexcept {
    return successors_;
  }
  void set_successor_list(std::vector<RingId> list);

  /// Drops `dead` from the successor list (failure handling).
  void remove_successor(RingId dead);

  std::optional<RingId> predecessor() const noexcept { return predecessor_; }
  void set_predecessor(std::optional<RingId> p) noexcept { predecessor_ = p; }

  /// Finger i targets id + 2^i; entry is the believed successor of that
  /// point, or nullopt if not yet learned.
  const std::vector<std::optional<RingId>>& fingers() const noexcept {
    return fingers_;
  }
  void set_finger(int i, std::optional<RingId> node);

  /// Best local next hop toward `key`: the finger or successor-list entry
  /// closest to (but strictly preceding) the key, per Chord. Links failing
  /// `alive(RingId) -> bool` are skipped (modelling contact timeouts — this
  /// covers both failed and departed peers). Returns nullopt when no live
  /// link strictly precedes the key. A template so the liveness test on
  /// every routing hop inlines instead of going through std::function.
  template <class Alive>
  std::optional<RingId> closest_preceding(RingId key, const RingSpace& space,
                                          const Alive& alive) const {
    // Scan fingers and the successor list for the live link closest to
    // (but strictly before) the key. Local knowledge only. Liveness is the
    // costly test and a pure filter, so it runs last, on candidates that
    // would otherwise become the best.
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

 private:
  std::vector<std::optional<RingId>> fingers_;
  std::vector<RingId> successors_;
  std::optional<RingId> predecessor_;
};

}  // namespace hkws::dht
