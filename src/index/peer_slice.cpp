#include "index/peer_slice.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <variant>

namespace hkws::index {
namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

/// The searcher's initiation leash is longer than one protocol step: the
/// coordinator's whole traversal (many sequential visits, each with its own
/// retransmission budget) happens between the initiation and the reply.
constexpr net::Time kInitLeash = 8;

std::size_t room_left(std::size_t threshold, std::size_t have) {
  if (threshold == 0) return kUnlimited;
  return threshold > have ? threshold - have : 0;
}

std::vector<net::WireHit> to_wire(const std::vector<Hit>& hits) {
  std::vector<net::WireHit> out;
  out.reserve(hits.size());
  for (const Hit& h : hits)
    out.push_back(net::WireHit{h.object, h.keywords.words()});
  return out;
}

std::vector<Hit> from_wire(const std::vector<net::WireHit>& hits) {
  std::vector<Hit> out;
  out.reserve(hits.size());
  for (const net::WireHit& h : hits)
    out.push_back(Hit{h.object, KeywordSet(h.keywords)});
  return out;
}

}  // namespace

PeerSlice::PeerSlice(net::Transport& net, Config cfg)
    : net_(net),
      cfg_(cfg),
      cube_(cfg.r),
      hasher_(cfg.r, seeds::kKeywordHash),
      space_(cfg.ring_bits) {
  if (cfg_.procs < 1 || cfg_.rank < 0 || cfg_.rank >= cfg_.procs)
    throw std::invalid_argument("PeerSlice: rank out of range");
  if (cfg_.n_peers < static_cast<net::EndpointId>(cfg_.procs))
    throw std::invalid_argument("PeerSlice: need at least one peer per rank");

  // Salted-hash ring placement (ChordNetwork's collision-bumping idiom),
  // derived identically by every process from the shared config — the
  // ownership map needs no bootstrap traffic.
  std::map<dht::RingId, net::EndpointId> ring;
  for (net::EndpointId ep = 1; ep <= cfg_.n_peers; ++ep) {
    std::uint64_t salt = 0;
    dht::RingId pos = 0;
    do {
      pos = space_.clamp(
          mix64(mix64(ep ^ seeds::kNodeId ^ cfg_.node_seed) + salt));
      ++salt;
    } while (ring.count(pos) != 0);
    ring.emplace(pos, ep);
  }
  ring_.assign(ring.begin(), ring.end());

  home_ = static_cast<net::EndpointId>(cfg_.rank) + 1;
  for (net::EndpointId ep = 1; ep <= cfg_.n_peers; ++ep)
    if (local_peer(ep)) net_.register_endpoint(ep);

  net_.set_payload_handler(
      [this](net::EndpointId from, net::EndpointId to, net::MsgKind kind,
             const net::WireMessage& msg) { on_payload(from, to, kind, msg); });
}

PeerSlice::~PeerSlice() { net_.set_payload_handler({}); }

net::EndpointId PeerSlice::peer_of(cube::CubeId u) const {
  const dht::RingId key = space_.clamp(mix64(u ^ cfg_.ring_salt));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<dht::RingId, net::EndpointId>& e, dht::RingId k) {
        return e.first < k;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap: successor of the max
  return it->second;
}

std::size_t PeerSlice::collect_local(cube::CubeId u, const KeywordSet& query,
                                     std::size_t room,
                                     std::vector<Hit>& out) const {
  if (room == 0) return 0;
  auto it = tables_.find(u);
  if (it == tables_.end()) return 0;
  std::size_t appended = 0;
  it->second.for_each_superset(
      query, [&](const KeywordSet& k, const std::set<ObjectId>& objects) {
        for (ObjectId o : objects) {
          if (appended >= room) return false;
          out.push_back(Hit{o, k});
          ++appended;
        }
        return appended < room;
      });
  return appended;
}

void PeerSlice::arm(net::Transport::TimerId& slot, net::Time delay,
                    std::function<void()> fn) {
  slot = cfg_.step_timeout > 0 ? net_.set_timer(delay, std::move(fn)) : 0;
}

// --- Object maintenance -----------------------------------------------------

void PeerSlice::publish(ObjectId object, const KeywordSet& keywords,
                        AckCallback acked) {
  if (keywords.empty())
    throw std::invalid_argument("PeerSlice::publish: empty keyword set");
  start_entry(net::MsgKind::kKwsInsert, object, keywords, std::move(acked));
}

void PeerSlice::withdraw(ObjectId object, const KeywordSet& keywords,
                         AckCallback acked) {
  if (keywords.empty())
    throw std::invalid_argument("PeerSlice::withdraw: empty keyword set");
  start_entry(net::MsgKind::kKwsDelete, object, keywords, std::move(acked));
}

void PeerSlice::start_entry(net::MsgKind kind, ObjectId object,
                            const KeywordSet& keywords, AckCallback acked) {
  net_.schedule_in(0, [this, kind, object, keywords,
                       acked = std::move(acked)]() mutable {
    const std::uint64_t id = fresh_id();
    net::EntryMsg m;
    m.object = object;
    m.keywords = keywords.words();
    m.request = id;
    m.publisher = home_;
    PendingAck& p = pubs_[id];
    p.to = peer_of(hasher_.responsible_node(keywords));
    p.kind = kind;
    p.msg = net::WireMessage{std::move(m)};
    p.cb = std::move(acked);
    net_.send_payload(home_, p.to, p.kind, p.msg);
    arm(p.timer, cfg_.step_timeout, [this, id] { on_ack_timeout(id); });
  });
}

void PeerSlice::on_ack_timeout(std::uint64_t id) {
  auto it = pubs_.find(id);
  if (it == pubs_.end()) return;
  PendingAck& p = it->second;
  if (p.retries >= cfg_.max_retries) {
    // Budget exhausted. Fire the callback anyway — an ack barrier must
    // terminate; the entry may or may not have been applied.
    AckCallback cb = std::move(p.cb);
    pubs_.erase(it);
    if (cb) cb();
    return;
  }
  ++p.retries;
  ++p.retransmits;
  net_.send_payload(home_, p.to, p.kind, p.msg);
  arm(p.timer, cfg_.step_timeout, [this, id] { on_ack_timeout(id); });
}

void PeerSlice::on_entry(net::EndpointId to, net::MsgKind kind,
                         const net::EntryMsg& m) {
  if (m.keywords.empty()) return;  // no node is responsible
  const KeywordSet k(m.keywords);
  const cube::CubeId u = hasher_.responsible_node(k);
  if (kind == net::MsgKind::kKwsInsert) {
    tables_[u].add(k, m.object);  // duplicate retransmits are absorbed
  } else if (auto it = tables_.find(u); it != tables_.end()) {
    it->second.remove(k, m.object);
  }
  if (m.request != 0)
    net_.send_payload(to, m.publisher, net::MsgKind::kKwsDone,
                      net::WireMessage{net::DoneMsg{m.request, 0}});
}

void PeerSlice::on_done(const net::DoneMsg& m) {
  if (auto it = pubs_.find(m.request); it != pubs_.end()) {
    if (it->second.timer != 0) net_.cancel_timer(it->second.timer);
    AckCallback cb = std::move(it->second.cb);
    pubs_.erase(it);
    if (cb) cb();
    return;
  }
  if (auto it = done_replies_.find(m.request); it != done_replies_.end()) {
    if (it->second.timer != 0) net_.cancel_timer(it->second.timer);
    it->second.timer = 0;
    it->second.acked = true;  // the tombstone stays: see DoneReply
  }
}

// --- Pin search -------------------------------------------------------------

void PeerSlice::pin_search(const KeywordSet& keywords, SearchCallback done) {
  if (keywords.empty())
    throw std::invalid_argument("PeerSlice::pin_search: empty keyword set");
  net_.schedule_in(0, [this, keywords, done = std::move(done)]() mutable {
    const std::uint64_t id = fresh_id();
    PendingSearch& p = pins_[id];
    p.to = peer_of(hasher_.responsible_node(keywords));
    p.kind = net::MsgKind::kKwsPin;
    p.msg = net::WireMessage{net::PinMsg{id, home_, keywords.words()}};
    p.cb = std::move(done);
    net_.send_payload(home_, p.to, p.kind, p.msg);
    arm(p.timer, cfg_.step_timeout, [this, id] { on_pin_timeout(id); });
  });
}

void PeerSlice::on_pin(net::EndpointId to, const net::PinMsg& m) {
  const KeywordSet k(m.keywords);
  const cube::CubeId u = hasher_.responsible_node(k);
  net::HitsMsg reply;
  reply.request = m.request;
  reply.node = u;
  if (auto it = tables_.find(u); it != tables_.end())
    for (ObjectId o : it->second.exact(k))
      reply.hits.push_back(net::WireHit{o, k.words()});
  net_.send_payload(to, m.searcher, net::MsgKind::kKwsPinReply,
                    net::WireMessage{std::move(reply)});
}

void PeerSlice::on_pin_reply(const net::HitsMsg& m) {
  auto it = pins_.find(m.request);
  if (it == pins_.end()) return;  // late duplicate; first reply won
  if (it->second.timer != 0) net_.cancel_timer(it->second.timer);
  SearchResult result;
  result.hits = from_wire(m.hits);
  result.stats.nodes_contacted = 1;
  result.stats.messages = 2;
  result.stats.rounds = 1;
  result.stats.complete = true;
  result.stats.retransmits = it->second.retransmits;
  SearchCallback cb = std::move(it->second.cb);
  pins_.erase(it);
  if (cb) cb(std::move(result));
}

void PeerSlice::on_pin_timeout(std::uint64_t id) {
  auto it = pins_.find(id);
  if (it == pins_.end()) return;
  PendingSearch& p = it->second;
  if (p.retries >= cfg_.max_retries) {
    SearchResult result;
    result.stats.failed = true;
    result.stats.retransmits = p.retransmits;
    SearchCallback cb = std::move(p.cb);
    pins_.erase(it);
    if (cb) cb(std::move(result));
    return;
  }
  ++p.retries;
  ++p.retransmits;
  net_.send_payload(home_, p.to, p.kind, p.msg);
  arm(p.timer, cfg_.step_timeout, [this, id] { on_pin_timeout(id); });
}

// --- Superset search: the searcher -----------------------------------------

void PeerSlice::superset_search(const KeywordSet& query, std::size_t threshold,
                                SearchCallback done) {
  if (query.empty())
    throw std::invalid_argument("PeerSlice::superset_search: empty query");
  net_.schedule_in(0, [this, query, threshold,
                       done = std::move(done)]() mutable {
    const std::uint64_t id = fresh_id();
    const cube::CubeId root = hasher_.responsible_node(query);
    PendingSearch& p = searches_[id];
    p.to = peer_of(root);
    p.kind = net::MsgKind::kKwsTQuery;
    p.msg = net::WireMessage{
        net::QueryMsg{id, root, home_, static_cast<std::uint64_t>(threshold),
                      0, query.words()}};
    p.cb = std::move(done);
    net_.send_payload(home_, p.to, p.kind, p.msg);
    arm(p.timer, cfg_.step_timeout * kInitLeash,
        [this, id] { on_search_timeout(id); });
  });
}

void PeerSlice::on_search_timeout(std::uint64_t id) {
  auto it = searches_.find(id);
  if (it == searches_.end()) return;
  PendingSearch& p = it->second;
  if (p.retries >= cfg_.max_retries) {
    SearchResult result;
    result.stats.failed = true;
    result.stats.retransmits = p.retransmits;
    SearchCallback cb = std::move(p.cb);
    searches_.erase(it);
    if (cb) cb(std::move(result));
    return;
  }
  ++p.retries;
  ++p.retransmits;
  net_.send_payload(home_, p.to, p.kind, p.msg);
  arm(p.timer, cfg_.step_timeout * kInitLeash,
      [this, id] { on_search_timeout(id); });
}

void PeerSlice::on_search_reply(net::EndpointId from, net::EndpointId to,
                                const net::SearchReplyMsg& m) {
  // Always ack — a duplicate reply after our entry is gone means the
  // coordinator never saw the previous ack.
  net_.send_payload(to, from, net::MsgKind::kKwsDone,
                    net::WireMessage{net::DoneMsg{m.request, 0}});
  auto it = searches_.find(m.request);
  if (it == searches_.end()) return;
  if (it->second.timer != 0) net_.cancel_timer(it->second.timer);
  SearchResult result;
  result.hits = from_wire(m.hits);
  result.stats.nodes_contacted = static_cast<std::size_t>(m.nodes_contacted);
  result.stats.messages = static_cast<std::size_t>(m.messages);
  result.stats.rounds = static_cast<std::size_t>(m.rounds);
  result.stats.retransmits =
      static_cast<std::size_t>(m.retransmits) + it->second.retransmits;
  result.stats.complete = m.complete;
  result.stats.failed = m.failed;
  SearchCallback cb = std::move(it->second.cb);
  searches_.erase(it);
  if (cb) cb(std::move(result));
}

// --- Superset search: visited nodes ----------------------------------------

void PeerSlice::on_query(net::EndpointId to, const net::QueryMsg& m) {
  if (m.query.empty()) return;
  const KeywordSet query(m.query);
  // The coordinator scans the root locally and only ever visits proper
  // subcube descendants, so node == F_h(query) identifies an initiation.
  if (m.node == hasher_.responsible_node(query))
    start_coordination(to, m);
  else
    serve_visit(to, m);
}

void PeerSlice::serve_visit(net::EndpointId to, const net::QueryMsg& m) {
  const KeywordSet query(m.query);
  const std::size_t room =
      m.want == 0 ? kUnlimited : static_cast<std::size_t>(m.want);
  std::vector<Hit> hits;
  const std::size_t c1 = collect_local(m.node, query, room, hits);
  if (c1 > 0)
    net_.send_payload(
        to, m.searcher, net::MsgKind::kKwsResults,
        net::WireMessage{net::HitsMsg{m.request, m.node, to_wire(hits)}});
  // collect_local caps c1 at room, so c1 == want iff this visit met the
  // searcher's remaining threshold (LogicalIndex's stop condition).
  const bool stop = m.want != 0 && c1 >= static_cast<std::size_t>(m.want);
  net_.send_payload(
      to, m.searcher, stop ? net::MsgKind::kKwsTStop : net::MsgKind::kKwsTCont,
      net::WireMessage{net::ControlMsg{m.request, m.node,
                                       static_cast<std::uint64_t>(c1), stop}});
}

// --- Superset search: the coordinator ---------------------------------------

void PeerSlice::start_coordination(net::EndpointId to, const net::QueryMsg& m) {
  const std::uint64_t id = m.request;
  if (auto done = done_replies_.find(id); done != done_replies_.end()) {
    send_reply(id, done->second);  // stale initiation retransmit
    return;
  }
  if (coords_.count(id) != 0) return;  // in progress; the reply will come

  Coordination& c = coords_[id];
  c.query = KeywordSet(m.query);
  c.root = m.node;
  c.threshold = static_cast<std::size_t>(m.want);
  c.searcher = m.searcher;
  c.self = to;
  c.stats.nodes_contacted = 1;  // the root
  c.stats.messages = 1;         // T_QUERY from the searcher to the root

  // Root examines its own table first. It is local by construction: the
  // searcher addressed the initiation to the root's serving peer with the
  // same deterministic ownership map.
  const std::size_t at_root =
      collect_local(c.root, c.query, room_left(c.threshold, 0), c.hits);
  if (at_root > 0) c.stats.messages += 1;  // results to the searcher

  const bool done_at_root = c.threshold != 0 && c.hits.size() >= c.threshold;
  if (!done_at_root)
    for (int i : cube_.zero_positions(c.root))
      c.queue.emplace_back(c.root | (1ULL << i), i);
  c.stopped_early = done_at_root && cube_.subcube_size(c.root) > 1;
  advance(id);
}

void PeerSlice::advance(std::uint64_t id) {
  auto it = coords_.find(id);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (c.queue.empty()) {
    finish(id, false);
    return;
  }
  const auto [w, d] = c.queue.front();
  c.queue.pop_front();
  ++c.stats.rounds;
  ++c.stats.nodes_contacted;
  ++c.stats.messages;  // T_QUERY(v -> w)
  const std::size_t room = room_left(c.threshold, c.hits.size());
  c.visiting = true;
  c.visit_node = w;
  c.visit_dim = d;
  c.visit_want = room == kUnlimited ? 0 : static_cast<std::uint64_t>(room);
  c.have_control = false;
  c.have_results = false;
  c.control_count = 0;
  c.control_stop = false;
  c.results.clear();
  c.retries = 0;
  send_visit(id, c);
  arm(c.timer, cfg_.step_timeout, [this, id] { on_visit_timeout(id); });
}

void PeerSlice::send_visit(std::uint64_t id, Coordination& c) {
  net_.send_payload(c.self, peer_of(c.visit_node), net::MsgKind::kKwsTQuery,
                    net::WireMessage{net::QueryMsg{id, c.visit_node, c.self,
                                                   c.visit_want, 0,
                                                   c.query.words()}});
}

void PeerSlice::on_results(const net::HitsMsg& m) {
  auto it = coords_.find(m.request);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (!c.visiting || m.node != c.visit_node || c.have_results) return;
  c.results = from_wire(m.hits);
  c.have_results = true;
  try_complete_step(m.request, c);
}

void PeerSlice::on_control(const net::ControlMsg& m) {
  auto it = coords_.find(m.request);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (!c.visiting || m.node != c.visit_node || c.have_control) return;
  c.have_control = true;
  c.control_count = m.count;
  c.control_stop = m.stop;
  try_complete_step(m.request, c);
}

void PeerSlice::try_complete_step(std::uint64_t id, Coordination& c) {
  if (!c.have_control) return;
  if (c.control_count > 0 && !c.have_results) return;  // results in flight
  if (c.timer != 0) {
    net_.cancel_timer(c.timer);
    c.timer = 0;
  }
  c.visiting = false;

  if (c.control_count > 0) {
    c.stats.messages += 1;  // results (w -> coordinator)
    c.hits.insert(c.hits.end(), c.results.begin(), c.results.end());
  }
  // Expand the node's children before the stop check: stopping here leaves
  // the search complete only if nothing, these children included, is
  // pending.
  for (int i : cube_.zero_positions(c.visit_node)) {
    if (i >= c.visit_dim) break;  // zero_positions is ascending
    c.queue.emplace_back(c.visit_node | (1ULL << i), i);
  }
  if (c.control_stop) {
    c.stats.messages += 1;  // T_STOP(w -> v)
    c.stopped_early = !c.queue.empty();
    finish(id, false);
    return;
  }
  c.stats.messages += 1;  // T_CONT(w -> v)
  advance(id);
}

void PeerSlice::on_visit_timeout(std::uint64_t id) {
  auto it = coords_.find(id);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (!c.visiting) return;
  if (c.retries >= cfg_.max_retries) {
    finish(id, true);  // step dead: ship the searcher what arrived
    return;
  }
  ++c.retries;
  ++c.stats.retransmits;
  send_visit(id, c);
  arm(c.timer, cfg_.step_timeout, [this, id] { on_visit_timeout(id); });
}

void PeerSlice::finish(std::uint64_t id, bool failed) {
  auto it = coords_.find(id);
  if (it == coords_.end()) return;
  Coordination& c = it->second;
  if (c.timer != 0) {
    net_.cancel_timer(c.timer);
    c.timer = 0;
  }
  c.stats.failed = failed;
  c.stats.complete = !failed && !c.stopped_early;
  c.stats.messages += 1;  // the final reply (OverlayIndex's done convention)

  DoneReply& d = done_replies_[id];
  d.searcher = c.searcher;
  d.self = c.self;
  d.reply.request = id;
  d.reply.nodes_contacted = c.stats.nodes_contacted;
  d.reply.messages = c.stats.messages;
  d.reply.rounds = c.stats.rounds;
  d.reply.retransmits = c.stats.retransmits;
  d.reply.complete = c.stats.complete;
  d.reply.failed = failed;
  d.reply.hits = to_wire(c.hits);
  coords_.erase(it);
  send_reply(id, d);
  arm(d.timer, cfg_.step_timeout, [this, id] { on_reply_timeout(id); });
}

void PeerSlice::send_reply(std::uint64_t id, DoneReply& d) {
  (void)id;
  net_.send_payload(d.self, d.searcher, net::MsgKind::kKwsSReply,
                    net::WireMessage{d.reply});
}

void PeerSlice::on_reply_timeout(std::uint64_t id) {
  auto it = done_replies_.find(id);
  if (it == done_replies_.end()) return;
  DoneReply& d = it->second;
  if (d.acked || d.retries >= cfg_.max_retries) {
    d.timer = 0;  // give up resending; the tombstone still answers dups
    return;
  }
  ++d.retries;
  send_reply(id, d);
  arm(d.timer, cfg_.step_timeout, [this, id] { on_reply_timeout(id); });
}

// --- Dispatch ---------------------------------------------------------------

void PeerSlice::on_payload(net::EndpointId from, net::EndpointId to,
                           net::MsgKind kind, const net::WireMessage& msg) {
  switch (kind) {
    case net::MsgKind::kKwsInsert:
    case net::MsgKind::kKwsDelete:
      if (const auto* m = std::get_if<net::EntryMsg>(&msg))
        on_entry(to, kind, *m);
      break;
    case net::MsgKind::kKwsPin:
      if (const auto* m = std::get_if<net::PinMsg>(&msg)) on_pin(to, *m);
      break;
    case net::MsgKind::kKwsPinReply:
      if (const auto* m = std::get_if<net::HitsMsg>(&msg)) on_pin_reply(*m);
      break;
    case net::MsgKind::kKwsTQuery:
      if (const auto* m = std::get_if<net::QueryMsg>(&msg)) on_query(to, *m);
      break;
    case net::MsgKind::kKwsResults:
      if (const auto* m = std::get_if<net::HitsMsg>(&msg)) on_results(*m);
      break;
    case net::MsgKind::kKwsTCont:
    case net::MsgKind::kKwsTStop:
      if (const auto* m = std::get_if<net::ControlMsg>(&msg)) on_control(*m);
      break;
    case net::MsgKind::kKwsSReply:
      if (const auto* m = std::get_if<net::SearchReplyMsg>(&msg))
        on_search_reply(from, to, *m);
      break;
    case net::MsgKind::kKwsDone:
      if (const auto* m = std::get_if<net::DoneMsg>(&msg)) on_done(*m);
      break;
    default:
      break;  // not a split-overlay message
  }
}

// --- Introspection -----------------------------------------------------------

std::size_t PeerSlice::local_object_count() const {
  std::size_t total = 0;
  for (const auto& [u, table] : tables_) total += table.object_count();
  return total;
}

std::size_t PeerSlice::local_table_count() const {
  std::size_t total = 0;
  for (const auto& [u, table] : tables_)
    if (!table.empty()) ++total;
  return total;
}

}  // namespace hkws::index
