#include "index/overlay_index.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

namespace hkws::index {

namespace {
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kHitBytes = 48;   // rough wire size of one result hit
constexpr std::size_t kCtrlBytes = 64;  // rough wire size of a control msg
// Per-cache floor when rebalance_caches() redistributes query-cache
// capacity by popularity.
constexpr std::size_t kMinCacheRecords = 2;

std::uint64_t total_count(const CachedTraversal& c) {
  std::uint64_t total = 0;
  for (const auto& [node, count] : c.contributors) total += count;
  return total;
}
}  // namespace

OverlayIndex::OverlayIndex(dht::Dolr& dolr, Config cfg)
    : dolr_(dolr),
      overlay_(dolr.overlay()),
      net_(dolr.overlay().transport()),
      cfg_(cfg),
      cube_(cfg.r),
      hasher_(cfg.r, cfg.hash_seed),
      backoff_rng_(cfg.backoff_seed) {
  // loads_by_cube_node() materializes a 2^r vector; protocols themselves
  // would work for larger r, but nothing in the paper's regime needs it.
  if (cfg.r > 24)
    throw std::invalid_argument("OverlayIndex: r must be <= 24");
}

sim::Time OverlayIndex::resend_delay(int attempt) {
  if (cfg_.backoff_cap == 0 || attempt <= 1) return cfg_.step_timeout;
  sim::Time d = cfg_.step_timeout;
  for (int i = 1; i < attempt && d < cfg_.backoff_cap; ++i) d *= 2;
  d = std::min(d, cfg_.backoff_cap);
  if (cfg_.backoff_jitter != 0)
    d += static_cast<sim::Time>(backoff_rng_.next_below(
        static_cast<std::uint64_t>(cfg_.backoff_jitter) + 1));
  return d;
}

dht::RingId OverlayIndex::ring_key_of(cube::CubeId u) const {
  // g: logical hypercube node -> ring key, independent of the other hashes.
  return overlay_.space().clamp(mix64(u ^ cfg_.ring_salt));
}

sim::EndpointId OverlayIndex::peer_of(cube::CubeId u) const {
  return overlay_.endpoint_of(overlay_.owner_of(ring_key_of(u)));
}

std::size_t OverlayIndex::room(const Request& req) const {
  if (req.threshold == 0) return kUnlimited;
  return req.threshold > req.collected ? req.threshold - req.collected : 0;
}

OverlayIndex::Request* OverlayIndex::find(std::uint64_t req_id) {
  const auto it = requests_.find(req_id);
  return it == requests_.end() ? nullptr : it->second.get();
}

// --- Object maintenance -----------------------------------------------------

void OverlayIndex::publish(sim::EndpointId publisher, ObjectId object,
                           const KeywordSet& keywords, PublishCallback done) {
  if (keywords.empty())
    throw std::invalid_argument("OverlayIndex::publish: empty keyword set");
  dolr_.insert(
      publisher, object,
      [this, object, keywords, done = std::move(done)](
          const dht::Dolr::InsertResult& r) {
        if (!r.first_copy) {
          if (done) done(PublishResult{false, r.hops, 0});
          return;
        }
        // First copy: create the keyword index entry at g(F_h(K)).
        const cube::CubeId u = hasher_.responsible_node(keywords);
        const sim::EndpointId from = overlay_.endpoint_of(r.owner);
        overlay_.route(
            from, ring_key_of(u), "kws.insert",
            kCtrlBytes + keywords.size() * 12,
            [this, u, object, keywords, done, dolr_hops = r.hops](
                const dht::Overlay::RouteResult& rr) {
              PeerState& ps = peer_state(overlay_.endpoint_of(rr.owner));
              if (ps.tables[u].add(keywords, object)) ++mutation_epoch_;
              replica_add(u, keywords, object);
              if (const auto cit = ps.caches.find(u); cit != ps.caches.end()) {
                cit->second.erase_if([&](const KeywordSet& q) {
                  return q.subset_of(keywords);
                });
              }
              if (done) done(PublishResult{true, dolr_hops, rr.hops});
            });
      });
}

void OverlayIndex::withdraw(sim::EndpointId publisher, ObjectId object,
                            const KeywordSet& keywords,
                            WithdrawCallback done) {
  dolr_.remove(
      publisher, object,
      [this, object, keywords, done = std::move(done)](
          const dht::Dolr::DeleteResult& r) {
        if (!r.last_copy) {
          if (done) done(WithdrawResult{false});
          return;
        }
        const cube::CubeId u = hasher_.responsible_node(keywords);
        const sim::EndpointId from = overlay_.endpoint_of(r.owner);
        overlay_.route(
            from, ring_key_of(u), "kws.delete", kCtrlBytes,
            [this, u, object, keywords, done](
                const dht::Overlay::RouteResult& rr) {
              PeerState& ps = peer_state(overlay_.endpoint_of(rr.owner));
              if (const auto it = ps.tables.find(u); it != ps.tables.end()) {
                if (it->second.remove(keywords, object)) ++mutation_epoch_;
                if (it->second.empty()) ps.tables.erase(it);
              }
              replica_remove(u, keywords, object);
              if (const auto cit = ps.caches.find(u); cit != ps.caches.end()) {
                cit->second.erase_if([&](const KeywordSet& q) {
                  return q.subset_of(keywords);
                });
              }
              if (done) done(WithdrawResult{true});
            });
      });
}

void OverlayIndex::reindex(sim::EndpointId from, ObjectId object,
                           const KeywordSet& keywords) {
  if (keywords.empty())
    throw std::invalid_argument("OverlayIndex::reindex: empty keyword set");
  const cube::CubeId u = hasher_.responsible_node(keywords);
  overlay_.route(from, ring_key_of(u), "kws.insert",
                 kCtrlBytes + keywords.size() * 12,
                 [this, u, object, keywords](
                     const dht::Overlay::RouteResult& rr) {
                   PeerState& ps = peer_state(overlay_.endpoint_of(rr.owner));
                   if (ps.tables[u].add(keywords, object)) ++mutation_epoch_;
                   replica_add(u, keywords, object);
                   if (const auto cit = ps.caches.find(u);
                       cit != ps.caches.end()) {
                     cit->second.erase_if([&](const KeywordSet& q) {
                       return q.subset_of(keywords);
                     });
                   }
                 });
}

void OverlayIndex::deindex(sim::EndpointId from, ObjectId object,
                           const KeywordSet& keywords) {
  const cube::CubeId u = hasher_.responsible_node(keywords);
  overlay_.route(from, ring_key_of(u), "kws.delete", kCtrlBytes,
                 [this, u, object, keywords](
                     const dht::Overlay::RouteResult& rr) {
                   PeerState& ps = peer_state(overlay_.endpoint_of(rr.owner));
                   if (const auto it = ps.tables.find(u);
                       it != ps.tables.end()) {
                     if (it->second.remove(keywords, object))
                       ++mutation_epoch_;
                     if (it->second.empty()) ps.tables.erase(it);
                   }
                   replica_remove(u, keywords, object);
                   if (const auto cit = ps.caches.find(u);
                       cit != ps.caches.end()) {
                     cit->second.erase_if([&](const KeywordSet& q) {
                       return q.subset_of(keywords);
                     });
                   }
                 });
}

// --- Retransmission guard ----------------------------------------------------

template <typename Find, typename Expire>
void OverlayIndex::arm(Guard& g, Find find, Expire expire) {
  g.timer = net_.set_timer(resend_delay(++g.attempts), [this, find, expire] {
    Guard* live = find();
    if (live == nullptr) return;
    live->timer = 0;
    expire(live->attempts > cfg_.max_retries);
  });
}

void OverlayIndex::note_retransmit(Request& req, std::uint64_t a,
                                   std::uint64_t b) {
  ++req.stats.retransmits;
  net_.metrics().count("kws.retransmit");
  emit(req.id, "retransmit", a, b);
}

// --- Pin search --------------------------------------------------------------

void OverlayIndex::pin_search(sim::EndpointId searcher,
                              const KeywordSet& keywords, SearchCallback done) {
  const std::uint64_t id = next_pin_++;
  auto pin = std::make_unique<PinState>();
  pin->keywords = keywords;
  pin->searcher = searcher;
  pin->done = std::move(done);
  pins_[id] = std::move(pin);
  pin_attempt(id);
}

OverlayIndex::PinState* OverlayIndex::find_pin(std::uint64_t pin_id) {
  const auto it = pins_.find(pin_id);
  return it == pins_.end() ? nullptr : it->second.get();
}

void OverlayIndex::pin_attempt(std::uint64_t pin_id) {
  PinState* pin = find_pin(pin_id);
  if (!pin) return;
  const cube::CubeId u = hasher_.responsible_node(pin->keywords);
  overlay_.route(
      pin->searcher, ring_key_of(u), "kws.pin",
      kCtrlBytes + pin->keywords.size() * 12,
      [this, pin_id, u](const dht::Overlay::RouteResult& rr) {
        PinState* p = find_pin(pin_id);
        if (!p) return;  // already answered by an earlier attempt
        p->stats.messages += static_cast<std::size_t>(rr.hops);
        const sim::EndpointId ep = overlay_.endpoint_of(rr.owner);
        PeerState& ps = peer_state(ep);
        std::vector<Hit> hits;
        if (const auto it = ps.tables.find(u); it != ps.tables.end()) {
          for (ObjectId o : it->second.exact(p->keywords))
            hits.push_back(Hit{o, p->keywords});
        }
        net_.send(ep, p->searcher, "kws.pin_reply", hits.size() * kHitBytes,
                  [this, pin_id, hits = std::move(hits)] {
                    PinState* p2 = find_pin(pin_id);
                    if (!p2) return;  // duplicate reply of a retried attempt
                    if (p2->guard.timer != 0)
                      net_.cancel_timer(p2->guard.timer);
                    SearchResult result;
                    result.hits = hits;
                    result.stats = p2->stats;
                    ++result.stats.messages;  // the direct reply
                    result.stats.nodes_contacted = 1;
                    result.stats.rounds = 1;
                    result.stats.complete = true;
                    if (p2->guard.attempts > 1) {
                      // A retry crossed a timeout: the serving peer may have
                      // changed under us, so the answer counts as degraded.
                      result.stats.degraded = true;
                      result.stats.failovers =
                          static_cast<std::size_t>(p2->guard.attempts - 1);
                    }
                    SearchCallback cb = std::move(p2->done);
                    pins_.erase(pin_id);
                    cb(result);
                  });
      });
  PinState* p = find_pin(pin_id);
  if (!p) return;  // the route may complete in place
  // Loss guard: route + reply under one retransmission guard, so a pin
  // aimed at a peer that dies mid-query retries (and the re-route lands on
  // the surrogate owner) instead of hanging forever.
  if (cfg_.step_timeout == 0 || cfg_.failover_after == 0) return;
  arm(p->guard,
      [this, pin_id]() -> Guard* {
        PinState* p2 = find_pin(pin_id);
        return p2 ? &p2->guard : nullptr;
      },
      [this, pin_id](bool spent) {
        PinState* p2 = find_pin(pin_id);
        if (spent) {
          net_.metrics().count("kws.request_failed");
          SearchResult result;
          result.stats = p2->stats;
          result.stats.failed = true;
          SearchCallback cb = std::move(p2->done);
          pins_.erase(pin_id);
          cb(result);
          return;
        }
        ++p2->stats.retransmits;
        net_.metrics().count("kws.retransmit");
        pin_attempt(pin_id);
      });
}

// --- Superset search ----------------------------------------------------------

std::uint64_t OverlayIndex::superset_search(sim::EndpointId searcher,
                                            const KeywordSet& query,
                                            std::size_t threshold,
                                            SearchStrategy strategy,
                                            SearchCallback done) {
  if (query.empty())
    throw std::invalid_argument("OverlayIndex: empty query");
  const std::uint64_t id = next_request_++;
  auto req = std::make_unique<Request>();
  req->id = id;
  req->query = query;
  req->threshold = threshold;
  req->searcher = searcher;
  req->root_cube = hasher_.responsible_node(query);
  req->epoch = mutation_epoch_;
  req->strategy = strategy;
  req->done = std::move(done);
  requests_[id] = std::move(req);
  begin_root_route(id);
  return id;
}

void OverlayIndex::begin_root_route(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  overlay_.route(
      req->searcher, ring_key_of(req->root_cube), "kws.t_query",
      kCtrlBytes + req->query.size() * 12,
      [this, req_id](const dht::Overlay::RouteResult& rr) {
        Request* r = find(req_id);
        // root_resolved dedups the callback of a route superseded by a
        // timeout-triggered re-route that happened to survive after all.
        if (!r || r->root_resolved) return;
        r->root_resolved = true;
        if (r->root_guard.timer != 0) {
          net_.cancel_timer(r->root_guard.timer);
          r->root_guard.timer = 0;
        }
        r->root_peer = overlay_.endpoint_of(rr.owner);
        r->stats.messages += static_cast<std::size_t>(rr.hops);
        r->stats.nodes_contacted = 1;
        emit(req_id, "root", r->root_peer, static_cast<std::uint64_t>(rr.hops));
        // Hot root cell: hand the coordinator role to a replica holder so
        // root scans (one per query) spread across owner + replicas. One
        // extra forwarding hop; all subsequent protocol runs at the replica.
        // failover_root re-resolves to the true owner on repeated timeouts.
        if (const sim::EndpointId rep = pick_replica(r->root_cube); rep != 0) {
          const sim::EndpointId owner = r->root_peer;
          r->root_peer = rep;
          ++r->stats.messages;
          ++replica_spread_visits_;
          net_.metrics().count("kws.replica_spread");
          emit(req_id, "spread", r->root_cube, rep);
          net_.send(owner, rep, "kws.t_query", kCtrlBytes,
                    [this, req_id, owner] {
                      Request* r2 = find(req_id);
                      if (!r2) return;
                      // Demoted while the handoff was in flight: the replica
                      // can no longer scan the root cell — run the
                      // coordinator at the owner after all.
                      if (!can_serve(r2->root_peer, r2->root_cube))
                        r2->root_peer = owner;
                      start_at_root(*r2);
                    });
          return;
        }
        start_at_root(*r);
      });
  if (cfg_.step_timeout == 0) return;
  Request* r = find(req_id);  // re-find: the route may complete in place
  if (r == nullptr || r->root_resolved) return;
  arm(r->root_guard,
      [this, req_id]() -> Guard* {
        Request* r2 = find(req_id);
        return r2 && !r2->root_resolved ? &r2->root_guard : nullptr;
      },
      [this, req_id](bool spent) {
        if (spent) return abort_request(req_id);
        Request* r2 = find(req_id);
        note_retransmit(*r2, r2->root_cube);
        begin_root_route(req_id);
      });
}

void OverlayIndex::failover_root(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req || req->failover_rerouting) return;
  req->failover_rerouting = true;
  // Re-resolve the root's owner through the DHT. Coordinator state lives in
  // this shared object keyed by request id, so "moving the coordinator" to
  // the surrogate owner is just re-aiming root_peer; in-flight step timers
  // then retransmit from (and reply to) the new peer.
  overlay_.route(
      req->searcher, ring_key_of(req->root_cube), "kws.t_query", kCtrlBytes,
      [this, req_id](const dht::Overlay::RouteResult& rr) {
        Request* r = find(req_id);
        if (!r) return;
        r->failover_rerouting = false;
        r->stats.messages += static_cast<std::size_t>(rr.hops);
        const sim::EndpointId surrogate = overlay_.endpoint_of(rr.owner);
        if (surrogate == r->root_peer) return;  // root is alive after all
        r->root_peer = surrogate;
        ++r->stats.failovers;
        r->stats.degraded = true;
        net_.metrics().count("kws.failover");
        emit(req_id, "failover", surrogate);
      });
}

bool OverlayIndex::cancel(std::uint64_t request) {
  Request* req = find(request);
  if (!req) return false;
  release_timers(*req);
  net_.metrics().count("kws.cancelled");
  if (req->root_resolved) {
    // Abandonment notice: a T_STOP tells the coordinator to stop exploring
    // the subtree. Coordinator state lives in this (shared) object, so
    // erasing the request is the stop itself; the message keeps the wire
    // cost model honest.
    net_.send(req->searcher, req->root_peer, "kws.t_stop", kCtrlBytes, [] {});
  }
  requests_.erase(request);
  return true;
}

void OverlayIndex::start_at_root(Request& req) {
  // The root examines its own index table first (paper step 0).
  req.plan.push_back(req.root_cube);
  req.nodes.emplace_back();
  const std::size_t c0 = ensure_scan(req, 0, req.root_peer).c1;
  req.collected += c0;
  if (c0 > 0)
    req.contributors.emplace_back(req.root_cube,
                                  static_cast<std::uint32_t>(c0));

  const cube::SpanningBinomialTree sbt(cube_, req.root_cube);
  if (req.threshold != 0 && req.collected >= req.threshold) {
    finish(req.id, /*stopped_early=*/sbt.size() > 1);
    return;
  }

  // Try the root's query cache: a cached traversal summary lets us contact
  // only the nodes known to contribute, one per round.
  if (cfg_.cache_capacity != 0) {
    PeerState& ps = peer_state(req.root_peer);
    if (const auto cit = ps.caches.find(req.root_cube);
        cit != ps.caches.end()) {
      if (const CachedTraversal* cached =
              cit->second.lookup(req.query, mutation_epoch_)) {
        if (cached->complete ||
            (req.threshold != 0 && total_count(*cached) >= req.threshold)) {
          req.stats.cache_hit = true;
          req.record_in_cache = false;
          req.plan_exhaustive = cached->complete;
          for (const auto& [node, count] : cached->contributors)
            if (node != req.root_cube) req.plan.push_back(node);
          start_round(req.id);
          return;
        }
      }
    }
  }

  if (req.strategy == SearchStrategy::kBottomUpSequential) {
    // Deepest nodes first; the root was already examined on arrival.
    for (cube::CubeId w : sbt.bottom_up_order())
      if (w != req.root_cube) req.plan.push_back(w);
  } else {
    req.plan = sbt.bfs_order();  // root first, as already scanned
    req.by_depth = req.strategy == SearchStrategy::kLevelParallel;
    if (req.by_depth) req.stats.levels = 1;  // the root's level
  }
  start_round(req.id);
}

void OverlayIndex::start_round(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  const std::size_t begin = req->nodes.size();
  if (begin == req->plan.size()) {
    finish(req_id, /*stopped_early=*/false);
    return;
  }
  // A sequential round is the next plan node; a level-parallel round is
  // the run of plan nodes at the next SBT depth.
  std::size_t end = begin + 1;
  if (req->by_depth) {
    const auto depth_of = [&](std::size_t i) {
      return popcount64(req->plan[i] ^ req->root_cube);
    };
    while (end < req->plan.size() && depth_of(end) == depth_of(begin)) ++end;
    ++req->stats.levels;
    emit(req_id, "level", static_cast<std::uint64_t>(depth_of(begin)),
         end - begin);
  }
  ++req->stats.rounds;
  req->outstanding = end - begin;
  req->nodes.resize(end);
  // req must not be dereferenced after dispatching: visit_node re-finds it.
  // Every level goes through the coalescing path, one-node levels too, so
  // the replica rotation advances the same way whatever the level's width.
  if (req->by_depth && cfg_.coalesce_visits) {
    visit_coalesced(req_id, begin, end);
    return;
  }
  for (std::size_t slot = begin; slot < end; ++slot) visit_node(req_id, slot);
}

void OverlayIndex::visit_coalesced(std::uint64_t req_id, std::size_t begin,
                                   std::size_t end) {
  Request* req = find(req_id);
  if (!req) return;
  // Group this round's nodes by live cached contact; two or more nodes
  // co-hosted at one peer travel as a single VisitBatch wire message.
  // Nodes without a usable contact (cold cache, dead peer) go through
  // visit_node, which handles DHT routing and surrogate failover. Hot cells
  // rotate onto a replica holder, which joins the grouping like any
  // contact, so a replicated node still coalesces with whatever else that
  // peer serves this round.
  struct Dest {
    cube::CubeId w = 0;
    sim::EndpointId host = 0;  ///< co-host, 0 = none
    bool replica = false;      ///< host is a picked replica holder
  };
  std::vector<Dest> dests(end - begin);
  std::unordered_map<sim::EndpointId, std::vector<std::size_t>> groups;
  {
    const PeerState& ps = peer_state(req->root_peer);
    for (std::size_t slot = begin; slot < end; ++slot) {
      Dest& d = dests[slot - begin];
      d.w = req->plan[slot];
      if (const sim::EndpointId rep = pick_replica(d.w); rep != 0) {
        d.host = rep;
        d.replica = true;
      } else if (const auto it = ps.contacts.find(d.w);
                 it != ps.contacts.end() && net_.is_registered(it->second)) {
        d.host = it->second;
      }
      if (d.host != 0) groups[d.host].push_back(slot);
    }
  }
  // Dispatch in plan order: a group goes out when its first member is
  // reached, so the wire order is deterministic.
  std::unordered_set<sim::EndpointId> batched;
  for (std::size_t slot = begin; slot < end; ++slot) {
    const Dest& d = dests[slot - begin];
    if (d.host == 0 || groups[d.host].size() < 2) {
      // Already-picked replica singles go out directly — re-picking in
      // visit_node would advance the rotation cursor a second time.
      if (d.replica)
        visit_replica(req_id, slot, d.host);
      else
        visit_node(req_id, slot);
      continue;
    }
    if (d.replica) {
      ++replica_spread_visits_;
      net_.metrics().count("kws.replica_spread");
      emit(req_id, "spread", d.w, d.host);
    }
    if (batched.insert(d.host).second)
      send_visit_batch(req_id, d.host, groups[d.host]);
  }
}

OverlayIndex::NodeRecord::Target& OverlayIndex::ensure_scan(
    Request& req, std::size_t slot, sim::EndpointId peer, bool ship) {
  const cube::CubeId w = req.plan[slot];
  NodeRecord::Target& t = req.nodes[slot].target;
  if (!t.scanned) {
    t.scanned = true;
    t.peer = peer;
    if (cfg_.hot.enabled) popularity_.note(net_.now(), w);
    PeerState& ps = peer_state(peer);
    bool truncated = false;  // the want limit cut matching objects off
    // Replica holders scan their write-through copy; the ordered entry map
    // makes the batch byte-identical to the primary's scan.
    if (const IndexTable* table = table_at(ps, w)) {
      const std::size_t want = room(req);
      HitBatchPool::Batch batch = hit_pool_.acquire();
      table->supersets_into(req.query, want == kUnlimited ? 0 : want,
                            &truncated, *batch);
      // An empty buffer goes straight back to the pool.
      if (!batch->empty()) t.batch = std::move(batch);
    }
    t.c1 = t.batch ? t.batch->size() : 0;
    // Control verdict is fixed at first scan so retransmitted arrivals
    // replay the identical reply (collected may have moved on since). The
    // table's truncation indicator stands in for "the want limit filled":
    // a cut-off scan means the threshold is reached with this batch, even
    // when the cut landed mid-way through one entry's object set.
    t.stop = !req.by_depth && req.threshold != 0 &&
             (truncated || req.collected + t.c1 >= req.threshold);
    if (t.c1 > 0) ++req.results_expected;
    emit(req.id, "scan", w, peer);
  }
  if (t.c1 > 0 && ship) {
    // Matching IDs travel directly to the searcher (paper protocol); a
    // retransmitted query replays the same batch, deduplicated there. The
    // closure shares the pooled buffer by pointer — no payload copy.
    ++req.stats.messages;
    net_.send(peer, req.searcher, "kws.results", t.c1 * kHitBytes,
              [this, id = req.id, slot, batch = t.batch] {
                on_results(id, slot, batch);
              });
    if (cfg_.step_timeout == 0) {
      // No retransmission: the memo will never be replayed. Drop its
      // reference; the in-flight message keeps the buffer alive and it
      // returns to the pool once delivered.
      t.batch.reset();
    }
  }
  return t;
}

void OverlayIndex::on_results(std::uint64_t req_id, std::size_t slot,
                              const HitBatchPool::Batch& batch) {
  Request* r = find(req_id);
  if (!r) return;
  NodeRecord::Searcher& s = r->nodes[slot].searcher;
  if (s.delivered) return;  // duplicate replay
  s.delivered = true;
  s.hits = batch;
  ++r->results_received;
  maybe_complete(req_id);
}

std::vector<Hit> OverlayIndex::assemble_hits(const Request& req) const {
  std::size_t total = 0;
  for (const NodeRecord& n : req.nodes)
    if (n.searcher.hits) total += n.searcher.hits->size();
  std::vector<Hit> out;
  out.reserve(total);
  for (const NodeRecord& n : req.nodes)
    if (n.searcher.hits)
      out.insert(out.end(), n.searcher.hits->begin(), n.searcher.hits->end());
  return out;
}

bool OverlayIndex::drop_stale_arrival(Request& req, std::size_t slot,
                                      sim::EndpointId peer) {
  const cube::CubeId w = req.plan[slot];
  if (!cfg_.hot.enabled || cfg_.step_timeout == 0 ||
      req.nodes[slot].target.scanned || can_serve(peer, w))
    return false;
  PeerState& ps = peer_state(req.root_peer);
  if (const auto it = ps.contacts.find(w);
      it != ps.contacts.end() && it->second == peer)
    ps.contacts.erase(it);
  return true;
}

void OverlayIndex::on_query_arrived(std::uint64_t req_id, std::size_t slot,
                                    sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req || drop_stale_arrival(*req, slot, peer)) return;
  if (!req->nodes[slot].target.scanned) ++req->stats.nodes_contacted;
  const NodeRecord::Target& t = ensure_scan(*req, slot, peer);
  // T_CONT carries the child list L; T_STOP ends the search. Either way one
  // direct control message back to the coordinator (replayed on
  // retransmitted queries so a lost reply cannot stall the coordinator).
  ++req->stats.messages;
  net_.send(peer, req->root_peer, t.stop ? "kws.t_stop" : "kws.t_cont",
            kCtrlBytes, [this, req_id, slot, peer, c1 = t.c1] {
              on_node_answered(req_id, slot, peer, c1);
            });
}

void OverlayIndex::visit_node(std::uint64_t req_id, std::size_t slot) {
  Request* req = find(req_id);
  if (!req) return;
  const cube::CubeId w = req->plan[slot];
  // Hot cell: rotate the visit across owner + replica holders. A lost
  // spread visit re-enters here via the step guard and re-picks, so loss
  // degrades to the usual individual retransmission.
  if (const sim::EndpointId rep = pick_replica(w); rep != 0) {
    visit_replica(req_id, slot, rep);
    return;
  }
  send_to_cube_node(
      req->root_peer, w, "kws.t_query", kCtrlBytes,
      [this, req_id](std::size_t n) {
        if (Request* r = find(req_id)) r->stats.messages += n;
      },
      [this, req_id, slot](sim::EndpointId peer) {
        on_query_arrived(req_id, slot, peer);
      },
      [this, req_id, w] {
        // A learned contact died: the step falls back to DHT routing and
        // lands on the surrogate owner, whose table may miss entries lost
        // with the peer — the result can no longer be trusted as complete.
        Request* r = find(req_id);
        if (!r) return;
        ++r->stats.failovers;
        r->stats.degraded = true;
        net_.metrics().count("kws.failover");
        emit(req_id, "failover", w, 2);
      });
  arm_step_guard(req_id, slot);
}

void OverlayIndex::arm_step_guard(std::uint64_t req_id, std::size_t slot) {
  if (cfg_.step_timeout == 0) return;
  Request* req = find(req_id);
  if (!req || req->nodes[slot].coord.answered) return;
  arm(req->nodes[slot].coord.step,
      [this, req_id, slot]() -> Guard* {
        Request* r = find(req_id);
        if (!r || r->nodes[slot].coord.answered) return nullptr;
        return &r->nodes[slot].coord.step;
      },
      [this, req_id, slot](bool spent) {
        if (spent) return abort_request(req_id);
        Request* r = find(req_id);
        note_retransmit(*r, r->plan[slot]);
        // Repeated timeouts on one step usually mean the coordinator (or
        // its stale idea of the root) is dead, not that messages are merely
        // slow: re-resolve the root before burning more of the budget.
        if (cfg_.failover_after != 0 &&
            r->nodes[slot].coord.step.attempts >= cfg_.failover_after)
          failover_root(req_id);
        visit_node(req_id, slot);
      });
}

void OverlayIndex::send_to_cube_node(
    sim::EndpointId from, cube::CubeId target, const char* kind,
    std::size_t bytes, const Charge& charge,
    std::function<void(sim::EndpointId)> at_target,
    const std::function<void()>& on_failover) {
  PeerState& ps = peer_state(from);
  if (const auto it = ps.contacts.find(target); it != ps.contacts.end()) {
    if (net_.is_registered(it->second)) {
      const sim::EndpointId to = it->second;
      charge(1);
      net_.send(from, to, kind, bytes,
                [to, at_target = std::move(at_target)] { at_target(to); });
      return;
    }
    ps.contacts.erase(it);  // stale contact: the peer is gone
    if (on_failover) on_failover();
  }
  overlay_.route(from, ring_key_of(target), kind, bytes,
                 [this, charge, at_target = std::move(at_target)](
                     const dht::Overlay::RouteResult& rr) {
                   charge(static_cast<std::size_t>(rr.hops));
                   at_target(overlay_.endpoint_of(rr.owner));
                 });
}

void OverlayIndex::send_visit_batch(std::uint64_t req_id, sim::EndpointId peer,
                                    const std::vector<std::size_t>& slots) {
  Request* req = find(req_id);
  if (!req) return;
  ++req->stats.messages;
  ++req->stats.coalesced_batches;
  req->stats.coalesced_visits += slots.size();
  net_.metrics().count("kws.coalesced_visits", slots.size());
  emit(req_id, "coalesce", peer, slots.size());
  net_.send(req->root_peer, peer, "kws.visit_batch",
            kCtrlBytes + slots.size() * 8,
            [this, req_id, peer, slots] {
              on_visit_batch_arrived(req_id, slots, peer);
            });
  // The usual per-node step guards: a lost batch (or reply) retransmits
  // each node individually via visit_node, replaying the memoized scans.
  for (const std::size_t slot : slots) arm_step_guard(req_id, slot);
}

void OverlayIndex::on_visit_batch_arrived(
    std::uint64_t req_id, const std::vector<std::size_t>& slots,
    sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req) return;
  // Scan every co-hosted node (memoized — idempotent when the batch is
  // duplicated or raced by an individual retransmission), then merge: one
  // result message carrying per-node batches to the searcher, one control
  // reply carrying per-node verdicts to the coordinator. Nodes with empty
  // batches ride along in the reply for free.
  std::vector<std::pair<std::size_t, HitBatchPool::Batch>> batches;
  std::vector<std::pair<std::size_t, std::size_t>> verdicts;
  std::size_t total_hits = 0;
  for (const std::size_t slot : slots) {
    // A stale arrival is left out of the reply; its step guard
    // retransmits it individually.
    if (drop_stale_arrival(*req, slot, peer)) continue;
    if (!req->nodes[slot].target.scanned) ++req->stats.nodes_contacted;
    const NodeRecord::Target& t = ensure_scan(*req, slot, peer, /*ship=*/false);
    verdicts.emplace_back(slot, t.c1);
    if (t.c1 > 0) {
      batches.emplace_back(slot, t.batch);  // shares the buffer, no copy
      total_hits += t.c1;
    }
  }
  if (cfg_.step_timeout == 0) {
    // No retransmission: the memos will never be replayed. The merged
    // result message below still holds its own references.
    for (const std::size_t slot : slots) req->nodes[slot].target.batch.reset();
  }
  if (total_hits > 0) {
    ++req->stats.messages;
    net_.send(peer, req->searcher, "kws.batch_results",
              total_hits * kHitBytes + batches.size() * 8,
              [this, req_id, batches = std::move(batches)] {
                for (const auto& [slot, batch] : batches)
                  on_results(req_id, slot, batch);
              });
  }
  ++req->stats.messages;
  net_.send(peer, req->root_peer, "kws.batch_reply",
            kCtrlBytes + verdicts.size() * 12,
            [this, req_id, peer, verdicts = std::move(verdicts)] {
              for (const auto& [slot, c1] : verdicts)
                on_node_answered(req_id, slot, peer, c1);
            });
}

void OverlayIndex::on_node_answered(std::uint64_t req_id, std::size_t slot,
                                    sim::EndpointId peer, std::size_t c1) {
  Request* req = find(req_id);
  if (!req) return;
  NodeRecord::Coordinator& coord = req->nodes[slot].coord;
  if (coord.answered) return;  // duplicate control reply
  coord.answered = true;
  if (coord.step.timer != 0) {
    net_.cancel_timer(coord.step.timer);
    coord.step.timer = 0;
  }
  const cube::CubeId w = req->plan[slot];
  req->collected += c1;
  if (c1 > 0)
    req->contributors.emplace_back(w, static_cast<std::uint32_t>(c1));
  // Only learn the node's *current owner* as its contact. A replica holder
  // must never be cached (the contact would pin all future traffic onto one
  // replica, defeating the rotation) — and checking "is it a holder?"
  // instead is not enough, because a holder demoted while its reply was in
  // flight would pass that check and poison the contact cache with a peer
  // that can no longer serve the node.
  if (peer == peer_of(w)) peer_state(req->root_peer).contacts[w] = peer;

  // Every answer belongs to the current round: the next round starts only
  // once all of this one's nodes have answered.
  if (--req->outstanding != 0) return;
  if (req->threshold != 0 && req->collected >= req->threshold) {
    finish(req_id, /*stopped_early=*/req->nodes.size() < req->plan.size());
    return;
  }
  start_round(req_id);
}

void OverlayIndex::finish(std::uint64_t req_id, bool stopped_early) {
  Request* req = find(req_id);
  if (!req) return;
  req->stats.complete = !stopped_early && req->plan_exhaustive;

  if (cfg_.cache_capacity != 0 && req->record_in_cache) {
    PeerState& ps = peer_state(req->root_peer);
    auto cit = ps.caches.try_emplace(req->root_cube, cfg_.cache_capacity).first;
    CachedTraversal summary;
    summary.contributors = req->contributors;
    summary.complete = req->stats.complete;
    // Stamp with the epoch captured at request start: if a mutation raced
    // this traversal, the entry is already stale and will never be served.
    cit->second.insert(req->query, std::move(summary), req->epoch);
  }

  send_done(req_id);
}

void OverlayIndex::send_done(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req || req->done_received) return;
  ++req->stats.messages;  // the final done notification to the searcher
  net_.send(req->root_peer, req->searcher, "kws.done", kCtrlBytes,
            [this, req_id] {
              Request* r = find(req_id);
              if (!r || r->done_received) return;
              r->done_received = true;
              if (r->done_guard.timer != 0) {
                net_.cancel_timer(r->done_guard.timer);
                r->done_guard.timer = 0;
              }
              maybe_complete(req_id);
            });
  if (cfg_.step_timeout == 0) return;
  arm(req->done_guard,
      [this, req_id]() -> Guard* {
        Request* r = find(req_id);
        return r && !r->done_received ? &r->done_guard : nullptr;
      },
      [this, req_id](bool spent) {
        if (spent) return abort_request(req_id);
        Request* r = find(req_id);
        note_retransmit(*r, r->root_cube, 1);
        send_done(req_id);
      });
}

void OverlayIndex::arm_repair_guard(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req || req->repair_guard.timer != 0) return;
  // The one guard that gives up before arming: re-ships happen on expiry,
  // so once max_retries rounds of them failed there is nothing to wait for.
  if (req->repair_guard.attempts >= cfg_.max_retries) {
    abort_request(req_id);
    return;
  }
  arm(req->repair_guard,
      [this, req_id]() -> Guard* {
        Request* r = find(req_id);
        return r ? &r->repair_guard : nullptr;
      },
      [this, req_id](bool /*spent: never, checked before arming*/) {
        Request* r = find(req_id);
        for (std::size_t slot = 0; slot < r->nodes.size(); ++slot) {
          NodeRecord& n = r->nodes[slot];
          if (n.target.c1 == 0 || n.searcher.delivered) continue;
          const cube::CubeId w = r->plan[slot];
          if (cfg_.failover_after != 0 && !net_.is_registered(n.target.peer)) {
            // The batch's origin died with the batch still undelivered: the
            // hits are unrecoverable until background repair re-homes the
            // entries. Serve what arrived as a degraded result instead of
            // burning the budget re-shipping from a dead peer.
            n.searcher.delivered = true;
            ++r->results_received;
            ++r->stats.failovers;
            r->stats.degraded = true;
            r->stats.complete = false;
            net_.metrics().count("kws.failover");
            emit(req_id, "failover", w, 1);
            continue;
          }
          ++r->stats.messages;
          note_retransmit(*r, w, 2);
          net_.send(n.target.peer, r->searcher, "kws.results",
                    n.target.c1 * kHitBytes,
                    [this, req_id, slot, batch = n.target.batch] {
                      on_results(req_id, slot, batch);
                    });
        }
        maybe_complete(req_id);  // arms the next round if batches are lost
      });
}

void OverlayIndex::release_timers(Request& req) {
  for (Guard* g : {&req.root_guard, &req.done_guard, &req.repair_guard})
    if (g->timer != 0) net_.cancel_timer(std::exchange(g->timer, 0));
  for (NodeRecord& n : req.nodes)
    if (n.coord.step.timer != 0)
      net_.cancel_timer(std::exchange(n.coord.step.timer, 0));
}

void OverlayIndex::abort_request(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  release_timers(*req);
  net_.metrics().count("kws.request_failed");
  emit(req_id, "failed");
  SearchResult result;
  result.hits = assemble_hits(*req);
  result.stats = req->stats;
  result.stats.failed = true;
  result.stats.complete = false;
  SearchCallback cb = std::move(req->done);
  requests_.erase(req_id);
  if (cb) cb(result);
}

void OverlayIndex::maybe_complete(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  if (!req->done_received || req->results_received != req->results_expected) {
    // A result batch can be lost even though the done arrived; after a
    // grace timeout re-ship whatever the searcher is still missing.
    if (req->done_received && cfg_.step_timeout != 0) arm_repair_guard(req_id);
    return;
  }
  release_timers(*req);
  SearchResult result;
  result.hits = assemble_hits(*req);
  result.stats = req->stats;
  SearchCallback cb = std::move(req->done);
  requests_.erase(req_id);
  if (cb) cb(result);
}

// --- Cumulative superset search ------------------------------------------------

OverlayIndex::CumulativeState* OverlayIndex::find_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::uint64_t OverlayIndex::open_cumulative(sim::EndpointId searcher,
                                            const KeywordSet& query) {
  if (query.empty())
    throw std::invalid_argument("open_cumulative: empty query");
  const std::uint64_t id = next_session_++;
  auto s = std::make_unique<CumulativeState>();
  s->query = query;
  s->searcher = searcher;
  s->root_cube = hasher_.responsible_node(query);
  s->order = cube::SpanningBinomialTree(cube_, s->root_cube).bfs_order();
  sessions_[id] = std::move(s);
  return id;
}

bool OverlayIndex::cumulative_exhausted(std::uint64_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() || it->second->exhausted;
}

void OverlayIndex::close_cumulative(std::uint64_t session) {
  sessions_.erase(session);
}

void OverlayIndex::cumulative_next(std::uint64_t session, std::size_t count,
                                   SearchCallback done) {
  CumulativeState* s = find_session(session);
  if (s == nullptr)
    throw std::invalid_argument("cumulative_next: unknown session");
  if (count == 0)
    throw std::invalid_argument("cumulative_next: count must be > 0");
  s->want = count;
  s->got = 0;
  s->hits.clear();
  s->stats = SearchStats{};
  s->results_expected = 0;
  s->results_received = 0;
  s->batch_done = false;
  s->done = std::move(done);

  if (s->exhausted) {
    // Nothing left; answer locally (no messages).
    net_.schedule_in(0, [this, session] {
      CumulativeState* st = find_session(session);
      if (!st) return;
      st->batch_done = true;
      cumulative_maybe_complete(session);
    });
    return;
  }

  if (!s->resolved) {
    // First page: route the continuation request to the root.
    overlay_.route(s->searcher, ring_key_of(s->root_cube), "kws.c_open",
                   kCtrlBytes + s->query.size() * 12,
                   [this, session](const dht::Overlay::RouteResult& rr) {
                     CumulativeState* st = find_session(session);
                     if (!st) return;
                     st->root_peer = overlay_.endpoint_of(rr.owner);
                     st->resolved = true;
                     st->stats.messages += static_cast<std::size_t>(rr.hops);
                     st->stats.nodes_contacted = 1;
                     cumulative_step(session);
                   });
  } else {
    ++s->stats.messages;  // direct continuation to the known root
    s->stats.nodes_contacted = 1;
    net_.send(s->searcher, s->root_peer, "kws.c_next", kCtrlBytes,
              [this, session] { cumulative_step(session); });
  }
}

void OverlayIndex::cumulative_step(std::uint64_t session) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  if (s->got >= s->want) {
    cumulative_finish_batch(session);
    return;
  }
  if (s->pos == s->order.size()) {
    s->exhausted = true;
    cumulative_finish_batch(session);
    return;
  }
  // The root's own table is the first node; scanning it costs no round.
  const cube::CubeId w = s->order[s->pos];
  if (w != s->root_cube) ++s->stats.rounds;
  cumulative_visit(session, w, s->offset);
}

void OverlayIndex::cumulative_visit(std::uint64_t session, cube::CubeId w,
                                    std::size_t offset) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  const std::size_t room = s->want - s->got;
  const Charge charge = [this, session](std::size_t n) {
    if (CumulativeState* st = find_session(session)) st->stats.messages += n;
  };

  // The scan + reply work that happens at the peer holding cube node w.
  auto scan_at = [this, session, w, offset, room,
                  charge](sim::EndpointId peer) {
    CumulativeState* st = find_session(session);
    if (!st) return;
    if (w != st->root_cube) ++st->stats.nodes_contacted;
    PeerState& ps = peer_state(peer);
    std::vector<Hit> all;
    if (const auto it = ps.tables.find(w); it != ps.tables.end())
      all = it->second.supersets(st->query, 0);
    const std::size_t total = all.size();
    std::vector<Hit> batch;
    for (std::size_t i = offset; i < all.size() && batch.size() < room; ++i)
      batch.push_back(all[i]);
    const std::size_t taken = batch.size();
    if (taken > 0) {
      // Ship this node's slice straight to the searcher. Distinct kind from
      // the one-shot search's "kws.results": cumulative delivery has no
      // retransmission/dedup layer, so fault injectors must not target it.
      ++st->results_expected;
      charge(1);
      net_.send(peer, st->searcher, "kws.c_results", taken * kHitBytes,
                [this, session, batch = std::move(batch)] {
                  CumulativeState* s2 = find_session(session);
                  if (!s2) return;
                  s2->hits.insert(s2->hits.end(), batch.begin(), batch.end());
                  ++s2->results_received;
                  cumulative_maybe_complete(session);
                });
    }
    // Report (taken, total) back to the root coordinator.
    auto continue_at_root = [this, session, w, peer, offset, taken, total] {
      CumulativeState* s2 = find_session(session);
      if (!s2) return;
      if (w != s2->root_cube) peer_state(s2->root_peer).contacts[w] = peer;
      s2->got += taken;
      if (offset + taken < total) {
        s2->offset = offset + taken;  // node not fully consumed: stay on it
      } else {
        s2->offset = 0;
        ++s2->pos;
      }
      cumulative_step(session);
    };
    if (w == st->root_cube) {
      // Local bookkeeping at the root itself: no network message.
      net_.send(peer, peer, "kws.c_local", 0, std::move(continue_at_root));
    } else {
      charge(1);
      net_.send(peer, st->root_peer, "kws.c_cont", kCtrlBytes,
                std::move(continue_at_root));
    }
  };

  if (w == s->root_cube) {
    scan_at(s->root_peer);
  } else {
    charge(0);  // cost accounted inside send_to_cube_node
    send_to_cube_node(s->root_peer, w, "kws.c_query", kCtrlBytes, charge,
                      std::move(scan_at));
  }
}

void OverlayIndex::cumulative_finish_batch(std::uint64_t session) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  ++s->stats.messages;  // done notification root -> searcher
  net_.send(s->root_peer, s->searcher, "kws.c_done", kCtrlBytes,
            [this, session] {
              CumulativeState* st = find_session(session);
              if (!st) return;
              st->batch_done = true;
              cumulative_maybe_complete(session);
            });
}

void OverlayIndex::cumulative_maybe_complete(std::uint64_t session) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  if (!s->batch_done || s->results_received != s->results_expected) return;
  SearchResult result;
  result.hits = std::move(s->hits);
  s->hits.clear();
  result.stats = s->stats;
  result.stats.complete = s->exhausted;
  SearchCallback cb = std::move(s->done);
  s->done = nullptr;
  if (cb) cb(result);
}

// --- Maintenance / introspection ---------------------------------------------

std::uint64_t OverlayIndex::repair_placement() {
  // Collect misplaced tables first; mutating peers_ while iterating would
  // invalidate iterators.
  std::vector<std::pair<sim::EndpointId, cube::CubeId>> misplaced;
  for (auto& [ep, ps] : peers_) {
    if (!overlay_.is_live(ep)) continue;
    for (auto& [u, table] : ps.tables)
      if (peer_of(u) != ep) misplaced.emplace_back(ep, u);
  }
  std::uint64_t moved = 0;
  for (const auto& [ep, u] : misplaced) {
    IndexTable table = std::move(peers_[ep].tables[u]);
    peers_[ep].tables.erase(u);
    PeerState& dst = peer_state(peer_of(u));
    for (const auto& [k, objects] : table.entries()) {
      for (ObjectId o : objects) {
        dst.tables[u].add(k, o);
        replica_add(u, k, o);
        ++moved;
      }
    }
    net_.metrics().count("kws.repair_entries", table.object_count());
  }
  // Contact and traversal caches are stale after any placement change.
  if (moved > 0) ++mutation_epoch_;
  for (auto& [ep, ps] : peers_) {
    ps.contacts.clear();
    ps.caches.clear();
  }
  return moved;
}

std::uint64_t OverlayIndex::repair_placement(std::size_t max_entries) {
  // Collect up to the budget of individual misplaced entries first (moving
  // while iterating would invalidate iterators), then apply the moves.
  struct Move {
    sim::EndpointId ep;
    cube::CubeId u;
    KeywordSet keywords;
    ObjectId object;
  };
  std::vector<Move> moves;
  for (const auto& [ep, ps] : peers_) {
    if (moves.size() >= max_entries) break;
    if (!overlay_.is_live(ep)) continue;
    for (const auto& [u, table] : ps.tables) {
      if (moves.size() >= max_entries) break;
      if (peer_of(u) == ep) continue;
      for (const auto& [k, objects] : table.entries()) {
        if (moves.size() >= max_entries) break;
        for (ObjectId o : objects) {
          if (moves.size() >= max_entries) break;
          moves.push_back(Move{ep, u, k, o});
        }
      }
    }
  }
  for (const Move& m : moves) {
    PeerState& src = peers_[m.ep];
    if (const auto it = src.tables.find(m.u); it != src.tables.end()) {
      it->second.remove(m.keywords, m.object);
      if (it->second.empty()) src.tables.erase(it);
    }
    peer_state(peer_of(m.u)).tables[m.u].add(m.keywords, m.object);
    // A placement move is not a deletion: replicas keep (or gain) the entry.
    replica_add(m.u, m.keywords, m.object);
  }
  if (!moves.empty()) {
    net_.metrics().count("kws.repair_entries", moves.size());
    ++mutation_epoch_;
    // Placement changed: learned contacts and traversal summaries are stale.
    for (auto& [ep, ps] : peers_) {
      ps.contacts.clear();
      ps.caches.clear();
    }
  }
  return moves.size();
}

std::size_t OverlayIndex::misplaced_entries() const {
  std::size_t misplaced = 0;
  for (const auto& [ep, ps] : peers_) {
    if (!overlay_.is_live(ep)) continue;
    for (const auto& [u, table] : ps.tables)
      if (peer_of(u) != ep) misplaced += table.object_count();
  }
  return misplaced;
}

bool OverlayIndex::has_entry(const KeywordSet& keywords,
                             ObjectId object) const {
  const IndexTable* t = table_of(hasher_.responsible_node(keywords));
  if (t == nullptr) return false;
  const auto& entries = t->entries();
  const auto it = entries.find(keywords);
  return it != entries.end() && it->second.contains(object);
}

void OverlayIndex::purge_dead() {
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (!overlay_.is_live(it->first)) {
      // Entries held by the dead peer are gone: surviving cached traversals
      // that counted on them are stale from this point on.
      if (!it->second.tables.empty()) ++mutation_epoch_;
      net_.metrics().count("kws.entries_lost",
                           [&] {
                             std::uint64_t n = 0;
                             for (const auto& [u, t] : it->second.tables)
                               n += t.object_count();
                             return n;
                           }());
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- Hot-cell replication ----------------------------------------------------

void OverlayIndex::replica_add(cube::CubeId u, const KeywordSet& keywords,
                               ObjectId o) {
  if (!cfg_.hot.enabled) return;
  const auto it = replicas_.find(u);
  if (it == replicas_.end()) return;
  for (const sim::EndpointId h : it->second.holders) {
    if (!net_.is_registered(h)) continue;
    const auto pit = peers_.find(h);
    if (pit == peers_.end()) continue;
    pit->second.replica_tables[u].add(keywords, o);
  }
}

void OverlayIndex::replica_remove(cube::CubeId u, const KeywordSet& keywords,
                                  ObjectId o) {
  if (!cfg_.hot.enabled) return;
  const auto it = replicas_.find(u);
  if (it == replicas_.end()) return;
  for (const sim::EndpointId h : it->second.holders) {
    const auto pit = peers_.find(h);
    if (pit == peers_.end()) continue;
    const auto tit = pit->second.replica_tables.find(u);
    if (tit == pit->second.replica_tables.end()) continue;
    tit->second.remove(keywords, o);
    if (tit->second.empty()) pit->second.replica_tables.erase(tit);
  }
}

bool OverlayIndex::is_replica_holder(cube::CubeId u,
                                     sim::EndpointId peer) const {
  if (!cfg_.hot.enabled) return false;
  const auto it = replicas_.find(u);
  if (it == replicas_.end()) return false;
  const auto& holders = it->second.holders;
  return std::find(holders.begin(), holders.end(), peer) != holders.end();
}

sim::EndpointId OverlayIndex::pick_replica(cube::CubeId w) {
  if (!cfg_.hot.enabled) return 0;
  const auto it = replicas_.find(w);
  if (it == replicas_.end()) return 0;
  ReplicaSet& rs = it->second;
  if (rs.holders.empty()) return 0;
  // Deterministic round-robin over 1 + holders slots; slot 0 is the owner.
  // Dead holders are skipped (their slot falls through to the next), so a
  // kill degrades the rotation instead of stalling it.
  const std::size_t slots = rs.holders.size() + 1;
  for (std::size_t i = 0; i < slots; ++i) {
    const std::size_t slot = rs.rr++ % slots;
    if (slot == 0) return 0;
    const sim::EndpointId peer = rs.holders[slot - 1];
    if (net_.is_registered(peer)) return peer;
  }
  return 0;
}

void OverlayIndex::visit_replica(std::uint64_t req_id, std::size_t slot,
                                 sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req) return;
  ++req->stats.messages;
  ++replica_spread_visits_;
  net_.metrics().count("kws.replica_spread");
  emit(req_id, "spread", req->plan[slot], peer);
  net_.send(req->root_peer, peer, "kws.t_query", kCtrlBytes,
            [this, req_id, slot, peer] {
              on_query_arrived(req_id, slot, peer);
            });
  arm_step_guard(req_id, slot);
}

bool OverlayIndex::can_serve(sim::EndpointId peer, cube::CubeId w) const {
  if (peer == peer_of(w)) return true;
  const auto pit = peers_.find(peer);
  return pit != peers_.end() && pit->second.replica_tables.contains(w);
}

const IndexTable* OverlayIndex::table_at(const PeerState& ps,
                                         cube::CubeId w) const {
  if (const auto it = ps.tables.find(w); it != ps.tables.end())
    return &it->second;
  if (cfg_.hot.enabled)
    if (const auto it = ps.replica_tables.find(w);
        it != ps.replica_tables.end())
      return &it->second;
  return nullptr;
}

std::uint64_t OverlayIndex::replication_step(std::size_t max_entries) {
  if (!cfg_.hot.enabled) return 0;
  const sim::Time now = net_.now();
  popularity_.rotate_to(now);

  // (1) The hot set: cells above the scan threshold, hottest first.
  std::unordered_map<cube::CubeId, std::uint64_t> counts = popularity_.cur;
  for (const auto& [u, n] : popularity_.prev) counts[u] += n;
  std::vector<std::pair<std::uint64_t, cube::CubeId>> ranked;
  for (const auto& [u, n] : counts)
    if (n >= cfg_.hot.min_scans) ranked.emplace_back(n, u);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (ranked.size() > cfg_.hot.max_hot) ranked.resize(cfg_.hot.max_hot);
  std::unordered_set<cube::CubeId> hot;
  for (const auto& [n, u] : ranked) hot.insert(u);

  // (2) Demote cells that cooled off: drop their replica copies.
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (hot.contains(it->first)) {
      ++it;
      continue;
    }
    for (const sim::EndpointId h : it->second.holders) {
      const auto pit = peers_.find(h);
      if (pit != peers_.end()) pit->second.replica_tables.erase(it->first);
    }
    ++replica_demotions_;
    net_.metrics().count("kws.replica_demotion");
    it = replicas_.erase(it);
  }

  std::uint64_t copied = 0;

  // (3) Restore: a hot cell's owner died and took the primary table with
  // it — re-seed the (surrogate) owner from a surviving replica before the
  // promote pass resyncs holders from the owner.
  bool restored = false;
  for (auto& [u, rs] : replicas_) {
    std::erase_if(rs.holders, [this](sim::EndpointId h) {
      return !net_.is_registered(h);
    });
    if (rs.holders.empty() || copied >= max_entries) continue;
    const auto hit = peers_.find(rs.holders.front());
    if (hit == peers_.end()) continue;
    const auto rtit = hit->second.replica_tables.find(u);
    if (rtit == hit->second.replica_tables.end()) continue;
    PeerState& owner_ps = peer_state(peer_of(u));
    const auto primary_has = [&owner_ps, u](const KeywordSet& k, ObjectId o) {
      const auto tit = owner_ps.tables.find(u);
      if (tit == owner_ps.tables.end()) return false;
      const auto& entries = tit->second.entries();
      const auto eit = entries.find(k);
      return eit != entries.end() && eit->second.contains(o);
    };
    for (const auto& [k, objects] : rtit->second.entries()) {
      if (copied >= max_entries) break;
      for (const ObjectId o : objects) {
        if (copied >= max_entries) break;
        if (primary_has(k, o)) continue;
        owner_ps.tables[u].add(k, o);
        ++copied;
        restored = true;
        net_.metrics().count("kws.replica_restore");
      }
    }
  }
  // Restored entries change what searches can see: stale traversal
  // summaries must not outlive them.
  if (restored) ++mutation_epoch_;

  // (4) Promote / resync: full-table copies from the owner onto the least
  // loaded live peers. Placement is a greedy bin-pack: each assignment
  // charges the chosen peer the cell's per-slot scan share, so one
  // replication round spreads the whole hot set instead of piling every
  // cell's replicas onto the same few idle peers (or, worse, onto the
  // owner's ring successors — a hot ring arc would just shift one arc
  // over). Already-synced holders keep their slot: placement churn would
  // re-copy tables for no load benefit. Copies are all-or-nothing per
  // holder within the budget (the first copy of a round always goes
  // through, so progress is guaranteed).
  std::map<sim::EndpointId, std::uint64_t> load_est;
  for (const dht::RingId rid : overlay_.live_ids())
    load_est.emplace(overlay_.endpoint_of(rid), 0);
  for (const auto& [u, n] : counts) {
    const auto rit = replicas_.find(u);
    const std::uint64_t slots =
        1 + (rit != replicas_.end() ? rit->second.holders.size() : 0);
    const std::uint64_t share = n / slots;
    if (const auto oit = load_est.find(peer_of(u)); oit != load_est.end())
      oit->second += share;
    if (rit != replicas_.end())
      for (const sim::EndpointId h : rit->second.holders)
        if (const auto hit2 = load_est.find(h); hit2 != load_est.end())
          hit2->second += share;
  }
  for (const auto& [n, u] : ranked) {
    const dht::RingId owner_ring = overlay_.owner_of(ring_key_of(u));
    const sim::EndpointId owner_ep = overlay_.endpoint_of(owner_ring);
    const IndexTable* src = nullptr;
    if (const auto oit = peers_.find(owner_ep); oit != peers_.end())
      if (const auto tit = oit->second.tables.find(u);
          tit != oit->second.tables.end())
        src = &tit->second;
    const auto rit = replicas_.find(u);
    const std::vector<sim::EndpointId> prior =
        rit != replicas_.end() ? rit->second.holders
                               : std::vector<sim::EndpointId>{};
    const auto want = static_cast<std::size_t>(cfg_.hot.replicas);
    const std::uint64_t share =
        n / (static_cast<std::uint64_t>(cfg_.hot.replicas) + 1);
    std::vector<sim::EndpointId> holders;
    for (const sim::EndpointId ep : prior) {
      if (holders.size() >= want) break;
      if (ep == owner_ep || !net_.is_registered(ep)) continue;
      if (peers_.contains(ep) && peers_.at(ep).replica_tables.contains(u))
        holders.push_back(ep);  // synced: already charged in load_est
    }
    bool budget_hit = false;
    while (holders.size() < want && !budget_hit) {
      const auto best = std::min_element(
          load_est.begin(), load_est.end(),
          [&](const auto& a, const auto& b) {
            const bool a_ok =
                a.first != owner_ep &&
                std::find(holders.begin(), holders.end(), a.first) ==
                    holders.end();
            const bool b_ok =
                b.first != owner_ep &&
                std::find(holders.begin(), holders.end(), b.first) ==
                    holders.end();
            if (a_ok != b_ok) return a_ok;
            return a.second < b.second;  // ties: smallest endpoint id wins
          });
      if (best == load_est.end() || best->first == owner_ep ||
          std::find(holders.begin(), holders.end(), best->first) !=
              holders.end())
        break;  // no eligible peer left
      const sim::EndpointId ep = best->first;
      const std::size_t size = src != nullptr ? src->object_count() : 0;
      if (copied > 0 && copied + size > max_entries) {
        budget_hit = true;
        break;
      }
      PeerState& hp = peer_state(ep);
      // Full copy into a fresh table: a leftover copy from an earlier
      // holder stint would otherwise keep entries withdrawn since.
      hp.replica_tables.erase(u);
      IndexTable& dst = hp.replica_tables[u];
      if (src != nullptr)
        for (const auto& [k, objects] : src->entries())
          for (const ObjectId o : objects) dst.add(k, o);
      copied += size;
      replica_entries_copied_ += size;
      net_.metrics().count("kws.replica_entries", size);
      holders.push_back(ep);
      best->second += share == 0 ? 1 : share;
    }
    // A prior holder that lost its slot stops getting write-through
    // updates; drop its copy so it cannot serve stale scans.
    for (const sim::EndpointId ep : prior) {
      if (std::find(holders.begin(), holders.end(), ep) != holders.end())
        continue;
      const auto pit = peers_.find(ep);
      if (pit != peers_.end()) pit->second.replica_tables.erase(u);
    }
    if (holders.empty()) {
      if (rit != replicas_.end()) replicas_.erase(u);
      continue;
    }
    ReplicaSet& rs = replicas_[u];
    const bool was_replicated = !rs.holders.empty();
    rs.holders = std::move(holders);
    if (!was_replicated) {
      ++replica_promotions_;
      net_.metrics().count("kws.replica_promotion");
    }
  }

  // (5) Popularity-proportional cache sizing rides the same window.
  rebalance_caches();
  return copied;
}

std::size_t OverlayIndex::replication_backlog() const {
  if (!cfg_.hot.enabled) return 0;
  std::size_t backlog = 0;
  for (const auto& [u, rs] : replicas_) {
    const IndexTable* primary = table_of(u);
    const auto contains = [](const IndexTable* t, const KeywordSet& k,
                             ObjectId o) {
      if (t == nullptr) return false;
      const auto eit = t->entries().find(k);
      return eit != t->entries().end() && eit->second.contains(o);
    };
    for (const sim::EndpointId h : rs.holders) {
      if (!net_.is_registered(h)) continue;
      const IndexTable* rep = nullptr;
      if (const auto pit = peers_.find(h); pit != peers_.end())
        if (const auto tit = pit->second.replica_tables.find(u);
            tit != pit->second.replica_tables.end())
          rep = &tit->second;
      // Owner entries the holder still misses (resync direction) ...
      if (primary != nullptr)
        for (const auto& [k, objects] : primary->entries())
          for (const ObjectId o : objects)
            if (!contains(rep, k, o)) ++backlog;
      // ... and replica entries the owner misses (restore direction).
      if (rep != nullptr)
        for (const auto& [k, objects] : rep->entries())
          for (const ObjectId o : objects)
            if (!contains(primary, k, o)) ++backlog;
    }
  }
  return backlog;
}

void OverlayIndex::rebalance_caches() {
  if (cfg_.cache_capacity == 0) return;
  const sim::Time now = net_.now();
  struct Slot {
    QueryCache* cache;
    std::uint64_t scans;
  };
  std::vector<Slot> slots;
  std::uint64_t total_scans = 0;
  for (auto& [ep, ps] : peers_) {
    for (auto& [u, cache] : ps.caches) {
      const std::uint64_t n = popularity_.count(now, u);
      slots.push_back(Slot{&cache, n});
      total_scans += n;
    }
  }
  if (slots.empty()) return;
  if (total_scans == 0) {
    // No popularity signal: fall back to the uniform configured size.
    for (const Slot& s : slots) s.cache->set_capacity(cfg_.cache_capacity);
    return;
  }
  // Keep the total records budget constant: every cache gets the floor,
  // the remainder is split in proportion to windowed scan counts (floor
  // rounding, so the sum never exceeds the budget).
  const std::size_t floor_each =
      std::min(kMinCacheRecords, cfg_.cache_capacity);
  const std::size_t budget = cfg_.cache_capacity * slots.size();
  const std::size_t spare = budget - floor_each * slots.size();
  for (const Slot& s : slots) {
    const std::size_t cap =
        floor_each +
        static_cast<std::size_t>(static_cast<double>(spare) *
                                 static_cast<double>(s.scans) /
                                 static_cast<double>(total_scans));
    s.cache->set_capacity(cap);
  }
}

OverlayIndex::HotCellStats OverlayIndex::hot_cell_stats() const {
  HotCellStats s;
  s.replicated_cells = replicas_.size();
  for (const auto& [u, rs] : replicas_)
    for (const sim::EndpointId h : rs.holders)
      if (net_.is_registered(h)) ++s.replica_holders;
  s.promotions = replica_promotions_;
  s.demotions = replica_demotions_;
  s.spread_visits = replica_spread_visits_;
  s.entries_copied = replica_entries_copied_;
  return s;
}

const IndexTable* OverlayIndex::table_of(cube::CubeId u) const {
  const auto pit = peers_.find(peer_of(u));
  if (pit == peers_.end()) return nullptr;
  const auto tit = pit->second.tables.find(u);
  return tit == pit->second.tables.end() ? nullptr : &tit->second;
}

std::vector<std::size_t> OverlayIndex::loads_by_cube_node() const {
  std::vector<std::size_t> loads(cube_.node_count(), 0);
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables)
      loads[static_cast<std::size_t>(u)] += table.object_count();
  return loads;
}

IndexTable::ScanStats OverlayIndex::scan_stats() const {
  IndexTable::ScanStats total;
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables) {
      const IndexTable::ScanStats& s = table.scan_stats();
      total.scans += s.scans;
      total.candidates += s.candidates;
      total.signature_rejects += s.signature_rejects;
      total.subset_checks += s.subset_checks;
      total.matches += s.matches;
      total.linear_equivalent += s.linear_equivalent;
    }
  return total;
}

void OverlayIndex::reset_scan_stats() const {
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables) table.reset_scan_stats();
}

}  // namespace hkws::index
