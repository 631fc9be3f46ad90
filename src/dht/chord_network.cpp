#include "dht/chord_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "net/ledger.hpp"

namespace hkws::dht {

namespace {
// Messages charged per maintenance interaction (request + reply).
constexpr std::uint64_t kRpcCost = 2;
}  // namespace

// In-flight state of one routed message.
struct RouteState {
  RingId key = 0;
  std::string kind;
  std::size_t bytes = 0;
  ChordNetwork::RouteCallback on_owner;
  int hops = 0;
};

ChordNetwork::ChordNetwork(net::Transport& net, Config cfg)
    : net_(net), cfg_(cfg), space_(cfg.id_bits) {
  if (cfg.id_bits < 1 || cfg.id_bits > 64)
    throw std::invalid_argument("ChordNetwork: id_bits must be in [1,64]");
  if (cfg.successor_list_size < 1)
    throw std::invalid_argument("ChordNetwork: successor_list_size >= 1");
}

RingId ChordNetwork::unique_ring_id(sim::EndpointId endpoint) {
  // Hash the endpoint onto the ring; on collision (likely only for small
  // id_bits), salt and retry so every peer gets a distinct id.
  for (std::uint64_t salt = 0;; ++salt) {
    const RingId id = space_.clamp(
        mix64(mix64(endpoint ^ seeds::kNodeId ^ cfg_.seed) + salt));
    if (!by_id_.contains(id) && !dead_.contains(id)) return id;
  }
}

RingId ChordNetwork::create_ring(sim::EndpointId endpoint) {
  if (!by_endpoint_.empty())
    throw std::logic_error("create_ring: ring already exists");
  const RingId id = unique_ring_id(endpoint);
  auto n = std::make_unique<ChordNode>(id, endpoint, cfg_.id_bits);
  n->set_successor_list({id});
  n->set_predecessor(id);
  for (int i = 0; i < cfg_.id_bits; ++i) n->set_finger(i, id);
  by_id_[id] = std::move(n);
  by_endpoint_[endpoint] = id;
  net_.register_endpoint(endpoint);
  return id;
}

RingId ChordNetwork::join(sim::EndpointId endpoint, sim::EndpointId bootstrap) {
  const auto boot_id = ring_id_of(bootstrap);
  if (!boot_id) throw std::invalid_argument("join: bootstrap not live");
  const RingId id = unique_ring_id(endpoint);

  // Find our successor through the overlay, starting at the bootstrap node.
  const RouteResult r = lookup_now(*boot_id, id, "dht.join");
  ChordNode& succ = node(r.owner);

  auto joiner = std::make_unique<ChordNode>(id, endpoint, cfg_.id_bits);
  // Successor list: successor first, then its list, truncated.
  std::vector<RingId> slist{succ.id()};
  for (RingId s : succ.successor_list()) {
    if (s != id && static_cast<int>(slist.size()) < cfg_.successor_list_size)
      slist.push_back(s);
  }
  joiner->set_successor_list(std::move(slist));
  joiner->set_predecessor(succ.predecessor());
  net_.metrics().count("dht.maintenance.msgs", kRpcCost);  // link exchange

  // Take over keys in (predecessor, id] from the successor.
  auto moved = succ.extract_refs_if([&](RingId key) {
    return space_.in_interval_oc(key, id, succ.id());
  });
  for (const auto& ref : moved) joiner->add_ref(ref);
  if (!moved.empty())
    net_.metrics().count("dht.maintenance.msgs", moved.size());

  // Splice: predecessor's successor and successor's predecessor now point
  // at the joiner (Chord would converge to this via notify; doing it
  // eagerly keeps the ring immediately routable).
  if (auto pred = succ.predecessor(); pred && *pred != id) {
    if (auto it = by_id_.find(*pred); it != by_id_.end()) {
      auto list = it->second->successor_list();
      list.insert(list.begin(), id);
      if (static_cast<int>(list.size()) > cfg_.successor_list_size)
        list.resize(static_cast<std::size_t>(cfg_.successor_list_size));
      it->second->set_successor_list(std::move(list));
      net_.metrics().count("dht.maintenance.msgs", 1);
    }
  }
  succ.set_predecessor(id);

  ChordNode& placed = *joiner;
  by_id_[id] = std::move(joiner);
  by_endpoint_[endpoint] = id;
  net_.register_endpoint(endpoint);
  fix_all_fingers(placed, /*charge=*/true);
  return id;
}

void ChordNetwork::leave(sim::EndpointId endpoint) {
  const auto idOpt = ring_id_of(endpoint);
  if (!idOpt) throw std::invalid_argument("leave: endpoint not live");
  const RingId id = *idOpt;
  ChordNode& n = node(id);

  if (by_id_.size() > 1) {
    // Hand all references to the successor.
    const RingId succ_id = owner_of(space_.clamp(id + 1));
    ChordNode& succ = node(succ_id);
    auto moved = n.extract_refs_if([](RingId) { return false; });
    for (const auto& ref : moved) succ.add_ref(ref);
    if (!moved.empty())
      net_.metrics().count("dht.maintenance.msgs", moved.size());

    // Splice the ring.
    if (auto pred = n.predecessor(); pred && *pred != id) {
      if (auto it = by_id_.find(*pred); it != by_id_.end()) {
        auto list = it->second->successor_list();
        std::erase(list, id);
        if (list.empty() || list.front() != succ_id)
          list.insert(list.begin(), succ_id);
        it->second->set_successor_list(std::move(list));
      }
      succ.set_predecessor(*pred);
      net_.metrics().count("dht.maintenance.msgs", kRpcCost);
    }
  }
  by_id_.erase(id);
  by_endpoint_.erase(endpoint);
  net_.unregister_endpoint(endpoint);
}

void ChordNetwork::fail(sim::EndpointId endpoint) {
  const auto idOpt = ring_id_of(endpoint);
  if (!idOpt) throw std::invalid_argument("fail: endpoint not live");
  dead_.insert(*idOpt);
  by_id_.erase(*idOpt);
  by_endpoint_.erase(endpoint);
  net_.unregister_endpoint(endpoint);
  net_.metrics().count("dht.failures");
}

std::uint64_t ChordNetwork::stabilize_all() {
  std::uint64_t charged = 0;
  const auto ids = live_ids();
  const int finger_to_fix =
      static_cast<int>(net_.metrics().counter("dht.stabilize_rounds") %
                       static_cast<std::uint64_t>(cfg_.id_bits));
  for (RingId id : ids) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) continue;
    ChordNode& n = *it->second;

    // 1. Drop dead successors; if the list empties, recover by probing the
    //    ring clockwise (models successive timeouts + rejoin-by-scan).
    auto list = n.successor_list();
    std::erase_if(list, [&](RingId s) { return !by_id_.contains(s); });
    if (list.empty()) {
      if (by_id_.size() == 1) {
        list = {id};
      } else {
        list = {owner_of(space_.clamp(id + 1))};
        charged += static_cast<std::uint64_t>(cfg_.successor_list_size);
      }
    }
    n.set_successor_list(std::move(list));

    // 2. Ask successor for its predecessor; adopt if it sits between us.
    const RingId succ_id = *n.successor();
    ChordNode& succ = node(succ_id == id ? id : succ_id);
    charged += kRpcCost;
    if (auto p = succ.predecessor();
        p && by_id_.contains(*p) && *p != id &&
        space_.in_interval_oo(*p, id, succ.id())) {
      auto nl = n.successor_list();
      nl.insert(nl.begin(), *p);
      n.set_successor_list(std::move(nl));
    }

    // 3. Notify our (possibly new) successor.
    ChordNode& cur_succ = node(*n.successor());
    if (auto cp = cur_succ.predecessor();
        !cp || !by_id_.contains(*cp) ||
        space_.in_interval_oo(id, *cp, cur_succ.id())) {
      cur_succ.set_predecessor(id);
    }
    charged += 1;

    // 4. Refresh successor list from successor's list.
    {
      auto nl = n.successor_list();
      nl.resize(1);
      for (RingId s : node(nl.front()).successor_list()) {
        if (s != id &&
            static_cast<int>(nl.size()) < cfg_.successor_list_size &&
            by_id_.contains(s))
          nl.push_back(s);
      }
      n.set_successor_list(std::move(nl));
    }

    // 5. Fix one finger per round (classic Chord pacing).
    const RingId target = space_.add_pow2(id, finger_to_fix);
    const RouteResult rr = lookup_now(id, target, "dht.fix_finger");
    n.set_finger(finger_to_fix, rr.owner);
    charged += static_cast<std::uint64_t>(rr.hops);

    // Prune fingers through dead nodes.
    for (int i = 0; i < cfg_.id_bits; ++i) {
      const auto& f = n.fingers()[static_cast<std::size_t>(i)];
      if (f && !by_id_.contains(*f)) n.set_finger(i, std::nullopt);
    }
  }
  net_.metrics().count("dht.stabilize_rounds");
  net_.metrics().count("dht.maintenance.msgs", charged);
  return charged;
}

ChordNetwork ChordNetwork::build(net::Transport& net, std::size_t n, Config cfg) {
  ChordNetwork dht(net, cfg);
  if (n == 0) return dht;
  // Instantiate all nodes, then compute exact steady-state links globally.
  for (std::size_t i = 0; i < n; ++i) {
    const auto endpoint = static_cast<sim::EndpointId>(i + 1);
    const RingId id = dht.unique_ring_id(endpoint);
    dht.by_id_[id] =
        std::make_unique<ChordNode>(id, endpoint, cfg.id_bits);
    dht.by_endpoint_[endpoint] = id;
    net.register_endpoint(endpoint);
  }
  for (auto& [id, nodeptr] : dht.by_id_) {
    ChordNode& nd = *nodeptr;
    // Successor list: next k nodes clockwise.
    std::vector<RingId> slist;
    auto it = dht.by_id_.upper_bound(id);
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(cfg.successor_list_size),
        dht.by_id_.size() - 1);
    while (slist.size() < want) {
      if (it == dht.by_id_.end()) it = dht.by_id_.begin();
      if (it->first == id) break;
      slist.push_back(it->first);
      ++it;
    }
    if (slist.empty()) slist = {id};
    nd.set_successor_list(std::move(slist));
    // Predecessor: previous node counterclockwise.
    auto pit = dht.by_id_.find(id);
    if (pit == dht.by_id_.begin()) pit = dht.by_id_.end();
    --pit;
    nd.set_predecessor(pit->first == id ? std::optional<RingId>{id}
                                        : std::optional<RingId>{pit->first});
    dht.fix_all_fingers(nd, /*charge=*/false);
  }
  return dht;
}

bool ChordNetwork::is_live(sim::EndpointId endpoint) const {
  return by_endpoint_.contains(endpoint);
}

std::optional<RingId> ChordNetwork::ring_id_of(sim::EndpointId endpoint) const {
  const auto it = by_endpoint_.find(endpoint);
  if (it == by_endpoint_.end()) return std::nullopt;
  return it->second;
}

sim::EndpointId ChordNetwork::endpoint_of(RingId id) const {
  return node(id).endpoint();
}

ChordNode& ChordNetwork::node(RingId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("ChordNetwork::node");
  return *it->second;
}

const ChordNode& ChordNetwork::node(RingId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) throw std::out_of_range("ChordNetwork::node");
  return *it->second;
}

ChordNode& ChordNetwork::node_at(sim::EndpointId endpoint) {
  const auto id = ring_id_of(endpoint);
  if (!id) throw std::out_of_range("ChordNetwork::node_at");
  return node(*id);
}

std::vector<RingId> ChordNetwork::live_ids() const {
  std::vector<RingId> ids;
  ids.reserve(by_id_.size());
  for (const auto& [id, _] : by_id_) ids.push_back(id);
  return ids;
}

RingId ChordNetwork::owner_of(RingId key) const {
  if (by_id_.empty()) throw std::logic_error("owner_of: empty ring");
  key = space_.clamp(key);
  auto it = by_id_.lower_bound(key);  // first id >= key (successor)
  if (it == by_id_.end()) it = by_id_.begin();
  return it->first;
}

std::vector<RingId> ChordNetwork::replica_targets(RingId owner,
                                                  int count) const {
  std::vector<RingId> targets;
  for (RingId s : node(owner).successor_list()) {
    if (static_cast<int>(targets.size()) >= count) break;
    if (s == owner || !by_id_.contains(s)) continue;
    targets.push_back(s);
  }
  return targets;
}

std::optional<ChordNetwork::Hop> ChordNetwork::next_hop(const ChordNode& at,
                                                        RingId key) const {
  // First live entry of the successor list (dead entries model timeouts).
  std::optional<RingId> succ;
  for (RingId s : at.successor_list()) {
    if (by_id_.contains(s)) {
      succ = s;
      break;
    }
  }
  if (!succ || *succ == at.id()) return std::nullopt;  // alone: we own it
  // Ownership shortcut, valid only while the predecessor link is live.
  if (auto pred = at.predecessor();
      pred && *pred != at.id() && by_id_.contains(*pred) &&
      space_.in_interval_oc(key, *pred, at.id()))
    return std::nullopt;
  // The predecessor decides: key in (us, successor] => successor owns it.
  if (space_.in_interval_oc(key, at.id(), *succ))
    return Hop{*succ, /*final=*/true};
  if (auto cp = at.closest_preceding(
          key, space_, [this](RingId x) { return by_id_.contains(x); }))
    return Hop{*cp, /*final=*/false};
  return Hop{*succ, /*final=*/false};  // fallback: walk the ring
}

void ChordNetwork::route_step(std::shared_ptr<RouteState> state, RingId at,
                              bool arrived_final) {
  const auto it = by_id_.find(at);
  if (it == by_id_.end()) {
    // Node died while the message was in flight.
    net_.metrics().count("dht.route_lost");
    return;
  }
  ChordNode& n = *it->second;
  const std::optional<Hop> hop =
      arrived_final ? std::optional<Hop>{} : next_hop(n, state->key);
  if (!hop || state->hops >= cfg_.max_route_hops) {
    if (state->hops >= cfg_.max_route_hops)
      net_.metrics().count("dht.route_overflow");
    state->on_owner(RouteResult{at, state->hops});
    return;
  }
  const RingId next = hop->next;
  const bool is_final = hop->final;
  ++state->hops;
  net_.send(n.endpoint(), endpoint_of(next), state->kind, state->bytes,
            [this, state, next, is_final] {
              route_step(std::move(state), next, is_final);
            });
}

void ChordNetwork::route(sim::EndpointId from, RingId key, std::string kind,
                         std::size_t payload_bytes, RouteCallback on_owner) {
  const auto start = ring_id_of(from);
  if (!start) {
    net_.metrics().count("dht.route_lost");
    return;
  }
  auto state = std::make_shared<RouteState>();
  state->key = space_.clamp(key);
  state->kind = std::move(kind);
  state->bytes = payload_bytes;
  state->on_owner = std::move(on_owner);
  // Kick off asynchronously so callers observe uniform async semantics.
  net_.schedule_in(0, [this, state, at = *start]() mutable {
    route_step(std::move(state), at, /*arrived_final=*/false);
  });
}

ChordNetwork::RouteResult ChordNetwork::lookup_now(RingId start, RingId key,
                                                   const std::string& kind) {
  key = space_.clamp(key);
  RingId at = start;
  int hops = 0;
  while (true) {
    const ChordNode& n = node(at);
    const auto hop = next_hop(n, key);
    if (!hop || hops >= cfg_.max_route_hops) {
      if (hops >= cfg_.max_route_hops)
        net_.metrics().count("dht.route_overflow");
      return RouteResult{at, hops};
    }
    at = hop->next;
    ++hops;
    net::ledger::charged(net_.metrics(), kind);
    if (hop->final) return RouteResult{at, hops};
  }
}

void ChordNetwork::fix_all_fingers(ChordNode& n, bool charge) {
  for (int i = 0; i < cfg_.id_bits; ++i) {
    const RingId target = space_.add_pow2(n.id(), i);
    if (charge) {
      const RouteResult r = lookup_now(n.id(), target, "dht.fix_finger");
      n.set_finger(i, r.owner);
    } else {
      n.set_finger(i, owner_of(target));
    }
  }
}

}  // namespace hkws::dht
