#include "dht/pastry_network.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/hash.hpp"
#include "net/ledger.hpp"

namespace hkws::dht {

namespace {
constexpr std::uint64_t kRpcCost = 2;  // request + reply
}

// In-flight state of one routed message.
struct PastryRouteState {
  RingId key = 0;
  std::string kind;
  std::size_t bytes = 0;
  Overlay::RouteCallback on_owner;
  int hops = 0;
};

PastryNetwork::PastryNetwork(net::Transport& net, Config cfg)
    : net_(net), cfg_(cfg), space_(cfg.id_bits) {
  if (cfg.id_bits < 1 || cfg.id_bits > 64)
    throw std::invalid_argument("PastryNetwork: id_bits must be in [1,64]");
  if (cfg.digit_bits < 1 || cfg.digit_bits > 8 ||
      cfg.id_bits % cfg.digit_bits != 0)
    throw std::invalid_argument(
        "PastryNetwork: id_bits must be a multiple of digit_bits (<= 8)");
  if (cfg.leaf_size < 2 || cfg.leaf_size % 2 != 0)
    throw std::invalid_argument("PastryNetwork: leaf_size must be even, >= 2");
  digits_ = cfg.id_bits / cfg.digit_bits;
}

int PastryNetwork::digit_at(RingId id, int position) const {
  const int shift = (digits_ - 1 - position) * cfg_.digit_bits;
  return static_cast<int>((id >> shift) & low_mask(cfg_.digit_bits));
}

int PastryNetwork::shared_prefix_digits(RingId a, RingId b) const {
  const std::uint64_t diff = space_.clamp(a ^ b);
  if (diff == 0) return digits_;
  const int leading_zero_bits = cfg_.id_bits - (highest_set_bit(diff) + 1);
  return leading_zero_bits / cfg_.digit_bits;
}

std::uint64_t PastryNetwork::circular_distance(RingId a, RingId b) const {
  return std::min(space_.distance(a, b), space_.distance(b, a));
}

RingId PastryNetwork::unique_ring_id(sim::EndpointId endpoint) {
  for (std::uint64_t salt = 0;; ++salt) {
    const RingId id = space_.clamp(
        mix64(mix64(endpoint ^ seeds::kNodeId ^ cfg_.seed ^ 0x9a57ULL) + salt));
    if (!by_id_.contains(id) && !dead_.contains(id)) return id;
  }
}

RingId PastryNetwork::owner_of(RingId key) const {
  if (by_id_.empty()) throw std::logic_error("owner_of: empty overlay");
  key = space_.clamp(key);
  // Numerically closest node; ties go to the clockwise side.
  auto cw = by_id_.lower_bound(key);
  if (cw == by_id_.end()) cw = by_id_.begin();
  auto ccw = by_id_.lower_bound(key);
  if (ccw == by_id_.begin()) ccw = by_id_.end();
  --ccw;
  const std::uint64_t dcw = space_.distance(key, cw->first);
  const std::uint64_t dccw = space_.distance(ccw->first, key);
  return dcw <= dccw ? cw->first : ccw->first;
}

void PastryNetwork::rebuild_state(PastryNode& n) {
  // Leaf sets: the leaf_size/2 nearest live nodes on each side.
  const int half = cfg_.leaf_size / 2;
  std::vector<RingId> cw, ccw;
  if (by_id_.size() > 1) {
    auto it = by_id_.upper_bound(n.id());
    while (static_cast<int>(cw.size()) < half) {
      if (it == by_id_.end()) it = by_id_.begin();
      if (it->first == n.id()) break;
      if (std::find(cw.begin(), cw.end(), it->first) != cw.end()) break;
      cw.push_back(it->first);
      ++it;
    }
    auto rit = by_id_.find(n.id());
    while (static_cast<int>(ccw.size()) < half) {
      if (rit == by_id_.begin()) rit = by_id_.end();
      --rit;
      if (rit->first == n.id()) break;
      if (std::find(ccw.begin(), ccw.end(), rit->first) != ccw.end()) break;
      ccw.push_back(rit->first);
    }
  }
  n.set_leaf_sets(std::move(cw), std::move(ccw));

  // Routing table: for row l / column d, any live node whose id shares our
  // first l digits and has digit d at position l. Such ids form one
  // contiguous identifier interval, so a map range scan finds them.
  for (int row = 0; row < digits_; ++row) {
    const int below_bits = cfg_.id_bits - (row + 1) * cfg_.digit_bits;
    for (int col = 0; col < (1 << cfg_.digit_bits); ++col) {
      if (col == digit_at(n.id(), row)) {
        n.set_table_entry(row, col, std::nullopt);  // our own digit
        continue;
      }
      const RingId base =
          (n.id() & ~low_mask(cfg_.id_bits - row * cfg_.digit_bits)) |
          (static_cast<RingId>(col) << below_bits);
      const RingId last = base | low_mask(below_bits);
      auto it = by_id_.lower_bound(base);
      if (it != by_id_.end() && it->first <= last)
        n.set_table_entry(row, col, it->first);
      else
        n.set_table_entry(row, col, std::nullopt);
    }
  }
}

RingId PastryNetwork::create(sim::EndpointId endpoint) {
  if (!by_endpoint_.empty())
    throw std::logic_error("create: overlay already exists");
  const RingId id = unique_ring_id(endpoint);
  by_id_[id] = std::make_unique<PastryNode>(id, endpoint, digits_,
                                            1 << cfg_.digit_bits);
  by_endpoint_[endpoint] = id;
  net_.register_endpoint(endpoint);
  rebuild_state(*by_id_[id]);
  return id;
}

RingId PastryNetwork::join(sim::EndpointId endpoint,
                           sim::EndpointId bootstrap) {
  const auto boot_id = ring_id_of(bootstrap);
  if (!boot_id) throw std::invalid_argument("join: bootstrap not live");
  const RingId id = unique_ring_id(endpoint);

  // Route a JOIN toward our own id; nodes along the path would contribute
  // their routing-table rows (charged below).
  const RouteResult r = lookup_now(*boot_id, id, "dht.join");
  PastryNode& prev_owner = node(r.owner);

  auto joiner = std::make_unique<PastryNode>(id, endpoint, digits_,
                                             1 << cfg_.digit_bits);
  PastryNode& placed = *joiner;
  by_id_[id] = std::move(joiner);
  by_endpoint_[endpoint] = id;
  net_.register_endpoint(endpoint);
  rebuild_state(placed);
  // State transfer: one row per path node plus the owner's leaf set.
  net_.metrics().count("dht.maintenance.msgs",
                       static_cast<std::uint64_t>(r.hops) + kRpcCost);

  // Take over references now numerically closest to us. They sit at the
  // previous owner and possibly its immediate neighbors.
  std::vector<PastryNode*> donors{&prev_owner};
  for (RingId nb : placed.leaf_cw())
    donors.push_back(&node(nb));
  for (RingId nb : placed.leaf_ccw())
    donors.push_back(&node(nb));
  std::uint64_t moved = 0;
  for (PastryNode* donor : donors) {
    if (donor->id() == id) continue;
    for (const auto& ref : donor->extract_refs_if(
             [&](RingId key) { return owner_of(key) != id; })) {
      placed.add_ref(ref);
      ++moved;
    }
  }
  if (moved != 0) net_.metrics().count("dht.maintenance.msgs", moved);

  // Announce ourselves to the leaf-set neighborhood.
  for (RingId nb : placed.known_nodes()) {
    rebuild_state(node(nb));
    net_.metrics().count("dht.maintenance.msgs", 1);
  }
  return id;
}

void PastryNetwork::leave(sim::EndpointId endpoint) {
  const auto idOpt = ring_id_of(endpoint);
  if (!idOpt) throw std::invalid_argument("leave: endpoint not live");
  const RingId id = *idOpt;
  PastryNode& n = node(id);
  auto refs = n.extract_refs_if([](RingId) { return false; });
  const auto neighbors = n.known_nodes();
  by_id_.erase(id);
  by_endpoint_.erase(endpoint);
  net_.unregister_endpoint(endpoint);
  if (!by_id_.empty()) {
    for (const auto& ref : refs) node(owner_of(ref.key)).add_ref(ref);
    net_.metrics().count("dht.maintenance.msgs", refs.size());
    for (RingId nb : neighbors) {
      if (!by_id_.contains(nb)) continue;
      rebuild_state(node(nb));
      net_.metrics().count("dht.maintenance.msgs", 1);
    }
  }
}

void PastryNetwork::fail(sim::EndpointId endpoint) {
  const auto idOpt = ring_id_of(endpoint);
  if (!idOpt) throw std::invalid_argument("fail: endpoint not live");
  dead_.insert(*idOpt);
  by_id_.erase(*idOpt);
  by_endpoint_.erase(endpoint);
  net_.unregister_endpoint(endpoint);
  net_.metrics().count("dht.failures");
}

std::uint64_t PastryNetwork::repair_all() {
  std::uint64_t charged = 0;
  for (const auto& [id, nodeptr] : by_id_) {
    rebuild_state(*nodeptr);
    charged += kRpcCost + static_cast<std::uint64_t>(cfg_.leaf_size);
  }
  net_.metrics().count("dht.maintenance.msgs", charged);
  return charged;
}

PastryNetwork PastryNetwork::build(net::Transport& net, std::size_t n,
                                   Config cfg) {
  PastryNetwork overlay(net, cfg);
  for (std::size_t i = 0; i < n; ++i) {
    const auto endpoint = static_cast<sim::EndpointId>(i + 1);
    const RingId id = overlay.unique_ring_id(endpoint);
    overlay.by_id_[id] = std::make_unique<PastryNode>(
        id, endpoint, overlay.digits_, 1 << cfg.digit_bits);
    overlay.by_endpoint_[endpoint] = id;
    net.register_endpoint(endpoint);
  }
  for (auto& [id, nodeptr] : overlay.by_id_)
    overlay.rebuild_state(*nodeptr);
  return overlay;
}

bool PastryNetwork::is_live(sim::EndpointId endpoint) const {
  return by_endpoint_.contains(endpoint);
}

std::optional<RingId> PastryNetwork::ring_id_of(
    sim::EndpointId endpoint) const {
  const auto it = by_endpoint_.find(endpoint);
  if (it == by_endpoint_.end()) return std::nullopt;
  return it->second;
}

sim::EndpointId PastryNetwork::endpoint_of(RingId id) const {
  return node(id).endpoint();
}

std::vector<RingId> PastryNetwork::live_ids() const {
  std::vector<RingId> ids;
  ids.reserve(by_id_.size());
  for (const auto& [id, _] : by_id_) ids.push_back(id);
  return ids;
}

PastryNode& PastryNetwork::node(RingId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("PastryNetwork::node");
  return *it->second;
}

const PastryNode& PastryNetwork::node(RingId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("PastryNetwork::node");
  return *it->second;
}

std::vector<RingId> PastryNetwork::replica_targets(RingId owner,
                                                   int count) const {
  // Alternate the two leaf-set sides, nearest first.
  const PastryNode& n = node(owner);
  std::vector<RingId> targets;
  std::size_t i = 0;
  while (static_cast<int>(targets.size()) < count) {
    bool any = false;
    if (i < n.leaf_cw().size() && by_id_.contains(n.leaf_cw()[i])) {
      targets.push_back(n.leaf_cw()[i]);
      any = true;
    }
    if (static_cast<int>(targets.size()) < count &&
        i < n.leaf_ccw().size() && by_id_.contains(n.leaf_ccw()[i])) {
      targets.push_back(n.leaf_ccw()[i]);
      any = true;
    }
    if (!any) break;
    ++i;
  }
  return targets;
}

std::optional<RingId> PastryNetwork::next_hop(const PastryNode& at,
                                              RingId key) const {
  auto alive = [&](RingId x) { return by_id_.contains(x); };

  // 1. Leaf-set case: if the key falls within the span of our leaf sets,
  //    deliver to the numerically closest of {self} ∪ leaf sets. When the
  //    two leaf sets overlap (small networks), they cover the whole ring.
  const RingId cw_edge =
      at.leaf_cw().empty() ? at.id() : at.leaf_cw().back();
  const RingId ccw_edge =
      at.leaf_ccw().empty() ? at.id() : at.leaf_ccw().back();
  const std::size_t half = static_cast<std::size_t>(cfg_.leaf_size) / 2;
  bool covers_ring = by_id_.size() == 1 || at.leaf_cw().size() < half ||
                     at.leaf_ccw().size() < half;
  if (!covers_ring) {
    for (RingId x : at.leaf_cw()) {
      if (std::find(at.leaf_ccw().begin(), at.leaf_ccw().end(), x) !=
          at.leaf_ccw().end()) {
        covers_ring = true;
        break;
      }
    }
  }
  const bool in_leaf_span =
      covers_ring || space_.in_interval_oc(key, ccw_edge, cw_edge) ||
      key == ccw_edge;
  if (in_leaf_span) {
    RingId best = at.id();
    std::uint64_t best_d = circular_distance(at.id(), key);
    auto consider = [&](RingId x) {
      if (!alive(x)) return;
      const std::uint64_t d = circular_distance(x, key);
      if (d < best_d || (d == best_d && x < best)) {
        best = x;
        best_d = d;
      }
    };
    for (RingId x : at.leaf_cw()) consider(x);
    for (RingId x : at.leaf_ccw()) consider(x);
    if (best == at.id()) return std::nullopt;  // we own it
    return best;
  }

  // 2. Prefix routing: the table entry matching one more digit of the key.
  const int l = shared_prefix_digits(at.id(), key);
  if (l < digits_) {
    const auto entry = at.table_entry(l, digit_at(key, l));
    if (entry && alive(*entry)) return *entry;
  }

  // 3. Rare case: any known node at least as prefix-close and numerically
  //    strictly closer to the key than we are.
  std::optional<RingId> best;
  std::uint64_t best_d = circular_distance(at.id(), key);
  for (RingId x : at.known_nodes()) {
    if (!alive(x) || shared_prefix_digits(x, key) < l) continue;
    const std::uint64_t d = circular_distance(x, key);
    if (d < best_d) {
      best = x;
      best_d = d;
    }
  }
  return best;  // nullopt => deliver here (best-effort surrogate)
}

void PastryNetwork::route_step(std::shared_ptr<PastryRouteState> state,
                               RingId at) {
  const auto it = by_id_.find(at);
  if (it == by_id_.end()) {
    net_.metrics().count("dht.route_lost");
    return;
  }
  PastryNode& n = *it->second;
  const auto hop = next_hop(n, state->key);
  if (!hop || state->hops >= cfg_.max_route_hops) {
    if (state->hops >= cfg_.max_route_hops)
      net_.metrics().count("dht.route_overflow");
    state->on_owner(RouteResult{at, state->hops});
    return;
  }
  const RingId next = *hop;
  ++state->hops;
  net_.send(n.endpoint(), endpoint_of(next), state->kind, state->bytes,
            [this, state, next] { route_step(std::move(state), next); });
}

void PastryNetwork::route(sim::EndpointId from, RingId key, std::string kind,
                          std::size_t payload_bytes, RouteCallback on_owner) {
  const auto start = ring_id_of(from);
  if (!start) {
    net_.metrics().count("dht.route_lost");
    return;
  }
  auto state = std::make_shared<PastryRouteState>();
  state->key = space_.clamp(key);
  state->kind = std::move(kind);
  state->bytes = payload_bytes;
  state->on_owner = std::move(on_owner);
  net_.schedule_in(0, [this, state, at = *start]() mutable {
    route_step(std::move(state), at);
  });
}

Overlay::RouteResult PastryNetwork::lookup_now(RingId start, RingId key,
                                               const std::string& kind) {
  key = space_.clamp(key);
  RingId at = start;
  int hops = 0;
  while (true) {
    const PastryNode& n = node(at);
    const auto hop = next_hop(n, key);
    if (!hop || hops >= cfg_.max_route_hops) {
      if (hops >= cfg_.max_route_hops)
        net_.metrics().count("dht.route_overflow");
      return RouteResult{at, hops};
    }
    at = *hop;
    ++hops;
    net::ledger::charged(net_.metrics(), kind);
  }
}

}  // namespace hkws::dht
