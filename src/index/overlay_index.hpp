// The distributed hypercube keyword-index layer (paper §3.3) running as a
// real message protocol over the Chord overlay and the DOLR reference
// service. Every logical hypercube node u is mapped by g onto the DHT peer
// owning ring key g(u); all index/search traffic travels as simulated
// network messages (T_QUERY, T_CONT, T_STOP, results, done), so hop and
// message counts come out of the network metrics, not a model.
//
// Protocol notes / adaptations (documented in DESIGN.md):
//  * The paper's queue U is precomputed. Its order never depends on scan
//    results (only the T_STOP decision does), so every superset search runs
//    one flat plan: the SBT's BFS order (exactly U's discipline) for
//    top-down and level-parallel, root then deepest-first for bottom-up, or
//    root then the cached contributors. The plan is cut into rounds, one
//    node each for the sequential strategies and one SBT depth each for
//    level-parallel; the stop rule decides how much of it runs, and the
//    result is complete iff no plan node is left when it stops.
//  * The first time a coordinator needs to reach a hypercube node it routes
//    through the DHT (multi-hop); the resolved peer contact is cached, so
//    repeat traffic is direct — exactly the neighbor-contact caching the
//    paper recommends in §3.4.
//  * Result messages go directly from each contributing node to the
//    searcher (as in the paper); the final `done` notification carries the
//    number of result messages sent so the searcher can complete exactly
//    when everything has arrived regardless of message reordering.
//  * Co-host visit coalescing (Config::coalesce_visits): when a
//    level-parallel round would visit several logical cube nodes whose
//    g-mapping resolves to the same cached physical contact, the
//    coordinator merges them into one `kws.visit_batch` wire message. The
//    peer scans every co-hosted node, ships a single `kws.batch_results`
//    message carrying per-logical-node batches to the searcher, and one
//    `kws.batch_reply` control message to the coordinator (empty co-hosted
//    nodes ride along for free). Per-node step timers stay armed: a lost
//    batch falls back to individual retransmission, which replays each
//    node's memoized scan, so loss tolerance and surrogate failover are
//    unchanged. See docs/PERF.md.
//  * Hit assembly is deterministic: the request keeps one record per
//    dispatched node in plan order, each node's result batch is buffered
//    in its record and the batches are concatenated in that order at
//    completion, so the hit sequence is independent of message arrival
//    order — and byte-identical with coalescing on or off.
//  * Superset search optionally runs with loss-tolerant delivery: when
//    Config::step_timeout is set, every protocol step (root contact,
//    per-node T_QUERY, the T_CONT/T_STOP reply, result delivery, and the
//    final done notification) is guarded by a cancelable timer and
//    retransmitted up to Config::max_retries times; all of them, and the
//    guarded pin, share one Guard type and one arm helper. Retransmitted
//    steps are idempotent — each node memoizes its first scan per request
//    and replays the same batch, and the searcher deduplicates batches by
//    origin node — so a search over a lossy network returns exactly the
//    result set of the lossless run, or reports stats.failed when a step
//    exhausts its budget. Requests can also be cancelled mid-flight
//    (deadline abandonment): cancel() drops all coordinator state and
//    signals the root with a T_STOP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/keyword.hpp"
#include "common/rng.hpp"
#include "cube/hypercube.hpp"
#include "cube/sbt.hpp"
#include "dht/dolr.hpp"
#include "index/hit_pool.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/query_cache.hpp"
#include "index/search_types.hpp"
#include "net/transport.hpp"

namespace hkws::index {

class OverlayIndex {
 public:
  struct Config {
    int r = 8;
    std::uint64_t hash_seed = seeds::kKeywordHash;
    /// Salt of the logical-to-physical map g. A mirror index (secondary
    /// hypercube, §3.4) uses a different salt so its entries land on
    /// different peers than the primary's.
    std::uint64_t ring_salt = seeds::kCubeToDht;
    std::size_t cache_capacity = 0;  ///< per-node query-cache records; 0 = off
    /// Merge a level-parallel round's visits to co-hosted cube nodes (same
    /// cached live contact) into one VisitBatch wire message per peer.
    /// Only cuts messages once contacts are warm.
    /// Results are byte-identical either way (see protocol notes above).
    bool coalesce_visits = true;
    /// Superset-search retransmission timeout in ticks; 0 disables loss
    /// tolerance (legacy behaviour: a lost message stalls the request until
    /// someone cancels it). Choose > the round-trip p99 to avoid spurious
    /// (harmless but costly) retransmits.
    sim::Time step_timeout = 0;
    /// Retransmissions per protocol step before the request is failed.
    int max_retries = 3;
    /// Retransmission backoff (partition-aware resend pacing): the k-th
    /// retransmit of a step waits min(step_timeout * 2^k, backoff_cap)
    /// plus a seeded jitter draw in [0, backoff_jitter] — during a
    /// partition the survivors stop hammering the cut at a fixed cadence,
    /// and the jitter de-synchronizes the retry thundering herd when it
    /// heals. The *first* arm of every step waits exactly step_timeout and
    /// draws no randomness, so fault-free runs are bit-identical to the
    /// legacy fixed resend. backoff_cap == 0 disables backoff entirely
    /// (legacy: every retransmit waits step_timeout).
    sim::Time backoff_cap = 0;
    sim::Time backoff_jitter = 0;   ///< jitter bound per backed-off resend
    std::uint64_t backoff_seed = 1; ///< seed of the jitter stream
    /// Degraded-mode serving: after this many consecutive timeouts on one
    /// protocol step, the coordinator re-resolves the root through the DHT
    /// and re-aims the request at the surrogate owner instead of burning
    /// the rest of the retransmit budget against a dead peer. Results that
    /// crossed a failover carry stats.degraded. Requires step_timeout != 0;
    /// 0 disables failover (legacy behaviour: retries then failure). Also
    /// gates the loss-guarded pin path.
    int failover_after = 0;
    /// Popularity-aware hot-cell replication (docs/ROBUSTNESS.md). Query
    /// traffic recreates load skew even though keyword-fusion placement
    /// balances storage: a few logical nodes absorb most T_QUERY scans.
    /// When enabled, replication_step() detects hot cube nodes from a
    /// sliding scan-count window, copies their IndexTables to `replicas`
    /// extra peers (the owner's DHT successor set), and the coordinator
    /// round-robins visits across owner + replicas. Replica tables are
    /// write-through (every index mutation applies to them immediately), so
    /// a replica's scan is byte-identical to the primary's. The same window
    /// drives popularity-proportional query-cache sizing.
    struct HotCellConfig {
      bool enabled = false;
      /// Replica holders per hot cell (extra copies beyond the owner).
      int replicas = 2;
      /// Sliding popularity-window width in ticks (two buckets: a scan
      /// counts for between one and two window widths).
      sim::Time window = 1000;
      /// Windowed scan count at which a cell qualifies as hot.
      std::uint64_t min_scans = 32;
      /// Most-scanned cells replicated per replication_step (cap on the
      /// replicated set, not per-call work — the budget handles that).
      std::size_t max_hot = 8;
    };
    HotCellConfig hot = {};
  };

  OverlayIndex(dht::Dolr& dolr, Config cfg);

  // --- Mapping ------------------------------------------------------------

  /// g(u): the ring key of logical hypercube node u.
  dht::RingId ring_key_of(cube::CubeId u) const;

  /// F_h(K).
  cube::CubeId responsible_node(const KeywordSet& keywords) const {
    return hasher_.responsible_node(keywords);
  }

  /// The peer currently playing hypercube node u (ownership oracle; used
  /// by experiments and tests, not by the protocol).
  sim::EndpointId peer_of(cube::CubeId u) const;

  // --- Object maintenance (paper Insert / Delete) --------------------------

  struct PublishResult {
    bool indexed = false;  ///< first copy: a keyword index entry was created
    int dolr_hops = 0;     ///< hops of the reference insert
    int index_hops = 0;    ///< hops of the index-entry insert (0 if !indexed)
  };
  using PublishCallback = std::function<void(const PublishResult&)>;

  /// Publishes a copy of `object` with keyword set `keywords` from
  /// `publisher`: places the reference via the DOLR; on the first copy,
  /// also inserts the index entry <keywords, object> at g(F_h(keywords)).
  void publish(sim::EndpointId publisher, ObjectId object,
               const KeywordSet& keywords, PublishCallback done = nullptr);

  struct WithdrawResult {
    bool index_removed = false;  ///< last copy: the index entry was deleted
  };
  using WithdrawCallback = std::function<void(const WithdrawResult&)>;

  /// Withdraws `publisher`'s copy; deletes the index entry when the last
  /// copy disappears.
  void withdraw(sim::EndpointId publisher, ObjectId object,
                const KeywordSet& keywords, WithdrawCallback done = nullptr);

  /// Repair/anti-entropy path: (re-)creates the index entry for an object
  /// whose references still exist but whose index entry was lost with a
  /// failed peer. Idempotent; one routed message. Also the building block
  /// for mirror (secondary-hypercube) indexing.
  void reindex(sim::EndpointId from, ObjectId object,
               const KeywordSet& keywords);

  /// Inverse of reindex: removes the index entry without touching the
  /// DOLR references. One routed message.
  void deindex(sim::EndpointId from, ObjectId object,
               const KeywordSet& keywords);

  // --- Search ---------------------------------------------------------------

  using SearchCallback = std::function<void(const SearchResult&)>;

  /// Pin search: one routed query to g(F_h(K)), one direct reply.
  void pin_search(sim::EndpointId searcher, const KeywordSet& keywords,
                  SearchCallback done);

  /// Superset search with the selected exploration strategy. Returns the
  /// request id, usable with cancel() while the search is in flight.
  std::uint64_t superset_search(sim::EndpointId searcher,
                                const KeywordSet& query,
                                std::size_t threshold, SearchStrategy strategy,
                                SearchCallback done);

  /// Abandons an in-flight superset search: coordinator state is dropped,
  /// the callback is never invoked, and (if the root was already located) a
  /// T_STOP message tells the root to stop exploring the subtree. Returns
  /// false if the request already completed or never existed. This is the
  /// deadline-enforcement hook of the serving engine.
  bool cancel(std::uint64_t request);

  /// Number of requests currently in flight (superset searches plus
  /// loss-guarded pins).
  std::size_t in_flight_requests() const noexcept {
    return requests_.size() + pins_.size();
  }

  // --- Tracing ---------------------------------------------------------------

  /// One protocol milestone of an in-flight request. Points currently
  /// emitted: "root" (a = root peer, b = route hops), "scan" (a = cube
  /// node, b = peer that served it), "level" (a = level index, b = width),
  /// "coalesce" (a = co-host peer, b = visits merged into the batch),
  /// "retransmit" (a = cube node or root cube), "failed" (budget
  /// exhausted), "spread" (a = cube node, b = replica holder serving the
  /// visit instead of the owner). See docs/ENGINE.md for the schema.
  struct Trace {
    std::uint64_t request = 0;
    const char* point = "";
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  using TraceFn = std::function<void(const Trace&)>;

  /// Installs a trace observer (nullptr to remove). Invoked synchronously
  /// from protocol event handlers; keep it cheap and non-reentrant.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  // --- Cumulative superset search (paper §2.2/§3.3) --------------------------
  //
  // "Cumulative superset search can be easily implemented by letting the
  // root node keep the queue U for subsequent queries until the search has
  // completed." Consecutive next() calls on a session return disjoint
  // batches until the subhypercube is exhausted.

  /// Opens a browsing session. Cheap (no messages until the first next()).
  std::uint64_t open_cumulative(sim::EndpointId searcher,
                                const KeywordSet& query);

  /// Fetches up to `count` further results (count >= 1). The result's
  /// stats.complete is true once the subhypercube is exhausted.
  void cumulative_next(std::uint64_t session, std::size_t count,
                       SearchCallback done);

  /// Whether the session has returned everything.
  bool cumulative_exhausted(std::uint64_t session) const;

  /// Discards the session's root-side state.
  void close_cumulative(std::uint64_t session);

  // --- Maintenance after churn ---------------------------------------------

  /// Re-places index entries whose cube node is now owned by a different
  /// peer and flushes contact/query caches. Returns entries moved.
  std::uint64_t repair_placement();

  /// Incremental variant for the maintenance plane: moves at most
  /// `max_entries` individual <keywords, object> entries per call, so
  /// repair work is rate-limited and interleaves with serving traffic.
  /// Re-scans on every call, so repeated calls converge to zero misplaced
  /// entries. Caches are flushed only when something actually moved.
  std::uint64_t repair_placement(std::size_t max_entries);

  /// Entries at live peers whose cube node is owned by someone else — the
  /// placement-repair backlog.
  std::size_t misplaced_entries() const;

  /// Drops index state held for peers that are no longer live (their
  /// entries are lost until republished — the paper's fault model).
  void purge_dead();

  // --- Hot-cell replication (Config::hot) ------------------------------------

  /// One round of popularity-aware replication (no-op unless hot.enabled):
  /// refreshes the hot set from the popularity window, demotes cells that
  /// cooled off, restores primary entries lost with a dead owner from
  /// surviving replicas, promotes/resyncs hot cells to their replica
  /// holders (full-table copies, at most `max_entries` entries per call so
  /// the maintenance plane can rate-limit it), and re-targets query-cache
  /// capacities in proportion to popularity. Synchronous bookkeeping — no
  /// wire messages. Returns entries copied or restored this round.
  std::uint64_t replication_step(std::size_t max_entries);

  /// Outstanding replication work: entries a registered live holder should
  /// mirror but does not yet, plus primary entries recoverable from a
  /// replica but missing at the owner. Zero once replication_step has
  /// converged for the current hot set.
  std::size_t replication_backlog() const;

  /// Replication counters (see docs/OBSERVABILITY.md).
  struct HotCellStats {
    std::size_t replicated_cells = 0;   ///< cells currently replicated
    std::size_t replica_holders = 0;    ///< live (cell, holder) pairs
    std::uint64_t promotions = 0;       ///< cells promoted to hot
    std::uint64_t demotions = 0;        ///< cells demoted (cooled off)
    std::uint64_t spread_visits = 0;    ///< visits served by a replica
    std::uint64_t entries_copied = 0;   ///< entries copied or restored
  };
  HotCellStats hot_cell_stats() const;

  // --- Introspection ---------------------------------------------------------

  const cube::Hypercube& cube() const noexcept { return cube_; }
  const KeywordHasher& hasher() const noexcept { return hasher_; }
  dht::Dolr& dolr() noexcept { return dolr_; }
  const dht::Dolr& dolr() const noexcept { return dolr_; }

  /// Whether the canonical owner of F_h(keywords) currently indexes
  /// <keywords, object>. Global-knowledge check used by the mirror resync
  /// to find entries one cube lost with a failed peer.
  bool has_entry(const KeywordSet& keywords, ObjectId object) const;

  /// Invokes fn(cube_node, keywords, object, holder_endpoint) for every
  /// index entry stored anywhere (including entries still held for dead
  /// peers until purge_dead runs). Anti-entropy building block.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [ep, ps] : peers_)
      for (const auto& [u, table] : ps.tables)
        for (const auto& [k, objects] : table.entries())
          for (ObjectId o : objects) fn(u, k, o, ep);
  }

  /// Invokes fn(cube_node, keywords, object, holder_endpoint) for every
  /// *replica* index entry (hot-cell copies held beside the primaries).
  /// Together with for_each_entry this enumerates every copy of every
  /// entry anywhere — the survivor set a churn oracle must credit.
  template <typename Fn>
  void for_each_replica_entry(Fn&& fn) const {
    for (const auto& [ep, ps] : peers_)
      for (const auto& [u, table] : ps.replica_tables)
        for (const auto& [k, objects] : table.entries())
          for (ObjectId o : objects) fn(u, k, o, ep);
  }

  /// The index table of cube node u at its current owner (nullptr if the
  /// owner holds no entries for u).
  const IndexTable* table_of(cube::CubeId u) const;

  /// Objects indexed per cube node (placement snapshot across all peers).
  std::vector<std::size_t> loads_by_cube_node() const;

  /// Aggregate superset-scan work counters summed over every index table on
  /// every peer (see IndexTable::ScanStats); the search-cost benchmark uses
  /// the delta against `linear_equivalent` to price the signature index.
  IndexTable::ScanStats scan_stats() const;
  void reset_scan_stats() const;

  /// Global index mutation epoch: bumped whenever any index table gains or
  /// loses an entry (publish/withdraw/reindex/deindex/repair/purge). Query
  /// caches stamp entries with the epoch; a lookup under a newer epoch is a
  /// miss. Exposed for tests and the torture harness's oracles.
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

 private:
  struct PeerState {
    std::unordered_map<cube::CubeId, IndexTable> tables;
    std::unordered_map<cube::CubeId, QueryCache> caches;
    std::unordered_map<cube::CubeId, sim::EndpointId> contacts;
    /// Hot-cell replica copies held at this peer, keyed by cube node. Kept
    /// strictly apart from `tables` so placement accounting (misplaced
    /// entries, repair, occupancy, loads) never counts a copy twice.
    std::unordered_map<cube::CubeId, IndexTable> replica_tables;
  };

  /// Replication state of one hot cube node.
  struct ReplicaSet {
    std::vector<sim::EndpointId> holders;  ///< replica peers (never the owner)
    std::size_t rr = 0;                    ///< round-robin spread cursor
  };

  /// Two-bucket sliding scan-count window: a scan stays visible for
  /// between one and two window widths, then ages out with its bucket.
  struct PopularityWindow {
    sim::Time width = 0;
    std::uint64_t cur_index = 0;
    std::unordered_map<cube::CubeId, std::uint64_t> cur;
    std::unordered_map<cube::CubeId, std::uint64_t> prev;

    void rotate_to(sim::Time at) {
      if (width == 0) return;
      const std::uint64_t idx =
          static_cast<std::uint64_t>(at) / static_cast<std::uint64_t>(width);
      if (idx == cur_index) return;
      if (idx == cur_index + 1) {
        prev = std::move(cur);
      } else {
        prev.clear();
      }
      cur.clear();
      cur_index = idx;
    }
    void note(sim::Time at, cube::CubeId u) {
      rotate_to(at);
      ++cur[u];
    }
    std::uint64_t count(sim::Time at, cube::CubeId u) const {
      if (width == 0) return 0;
      const std::uint64_t idx =
          static_cast<std::uint64_t>(at) / static_cast<std::uint64_t>(width);
      std::uint64_t n = 0;
      if (idx == cur_index) {
        if (const auto it = cur.find(u); it != cur.end()) n += it->second;
        if (const auto it = prev.find(u); it != prev.end()) n += it->second;
      } else if (idx == cur_index + 1) {
        if (const auto it = cur.find(u); it != cur.end()) n += it->second;
      }
      return n;
    }
  };

  /// Retransmission guard of one protocol step (root contact, per-node
  /// T_QUERY, done notification, result re-shipping, guarded pin): the
  /// pending timer and the number of timers the step has armed. Attempt k
  /// waits resend_delay(k); the step gives up when attempt max_retries + 1
  /// expires.
  struct Guard {
    net::Transport::TimerId timer = 0;
    int attempts = 0;
  };

  /// Everything a request keeps about one dispatched cube node, grouped by
  /// the role that owns it. All three roles live in this one object today;
  /// a message-native split would hand each its own part.
  struct NodeRecord {
    /// Coordinator: whether the node's T_CONT/T_STOP arrived, and the guard
    /// of its T_QUERY.
    struct Coordinator {
      bool answered = false;
      Guard step;
    } coord;
    /// Target: memo of the node's first scan. Keeping the batch makes
    /// retransmitted T_QUERYs idempotent: the node always replays its
    /// original answer, never a rescan (whose room() could have changed).
    /// The batch is a pooled shared buffer: wire closures and the
    /// searcher's part hold references instead of copies, and the memo
    /// drops its own reference after shipping when retransmission is off.
    struct Target {
      bool scanned = false;
      sim::EndpointId peer = 0;
      std::size_t c1 = 0;         ///< matches found at first scan
      bool stop = false;          ///< control verdict of the first scan
      HitBatchPool::Batch batch;  ///< null when the scan found nothing
    } target;
    /// Searcher: the node's batch arrived (or was written off with its dead
    /// origin). Batches are concatenated in dispatch order at completion.
    struct Searcher {
      bool delivered = false;
      HitBatchPool::Batch hits;
    } searcher;
  };

  struct Request {
    std::uint64_t id = 0;
    KeywordSet query;
    std::size_t threshold = 0;
    sim::EndpointId searcher = 0;
    cube::CubeId root_cube = 0;
    sim::EndpointId root_peer = 0;
    bool root_resolved = false;
    /// A failover re-resolution of the root is in flight (dedup guard).
    bool failover_rerouting = false;
    /// Index mutation epoch captured at request creation. A summary cached
    /// under this epoch is invalidated by any later mutation, so a search
    /// that raced a mutation can never serve its stale plan to a successor.
    std::uint64_t epoch = 0;
    SearchStrategy strategy = SearchStrategy::kTopDownSequential;
    /// The visit plan, root first (see the protocol notes above), and
    /// whether its rounds are whole SBT depths rather than single nodes.
    std::vector<cube::CubeId> plan;
    bool by_depth = false;
    /// The plan spans the whole subhypercube (false for a cached plan taken
    /// from a partial traversal).
    bool plan_exhaustive = true;
    /// One record per dispatched node: nodes[i] belongs to plan[i].
    std::vector<NodeRecord> nodes;
    std::size_t outstanding = 0;  ///< unanswered nodes of the current round
    // Guards of the request-wide steps (idle when step_timeout == 0).
    Guard root_guard;
    Guard done_guard;
    Guard repair_guard;
    std::size_t collected = 0;
    /// Contributing nodes in answer order: the query-cache summary.
    std::vector<std::pair<cube::CubeId, std::uint32_t>> contributors;
    SearchStats stats;
    std::size_t results_expected = 0;
    std::size_t results_received = 0;
    bool done_received = false;
    bool record_in_cache = true;
    SearchCallback done;
  };

  /// Root-side state of a cumulative session: the paper's queue U,
  /// precomputed as the SBT's BFS order, with the cursor into it and the
  /// within-node consumption offset.
  struct CumulativeState {
    KeywordSet query;
    sim::EndpointId searcher = 0;
    cube::CubeId root_cube = 0;
    sim::EndpointId root_peer = 0;
    bool resolved = false;     ///< root peer located (first next() routes)
    std::vector<cube::CubeId> order;  ///< root first
    std::size_t pos = 0;       ///< the node of `order` being consumed
    std::size_t offset = 0;    ///< results already returned from order[pos]
    bool exhausted = false;
    // Per-next() call bookkeeping.
    std::size_t want = 0;
    std::size_t got = 0;
    std::vector<Hit> hits;
    SearchStats stats;
    std::size_t results_expected = 0;
    std::size_t results_received = 0;
    bool batch_done = false;
    SearchCallback done;
  };

  /// Coordinator state of one pin search. With Config::step_timeout and
  /// Config::failover_after both set, the route + direct reply are guarded
  /// by one timer; a timeout re-routes from scratch, which lands on the
  /// surrogate owner if the original peer died mid-query.
  struct PinState {
    KeywordSet keywords;
    sim::EndpointId searcher = 0;
    /// Armed only when the pin is guarded; `attempts` then counts sends.
    Guard guard;
    SearchStats stats;  ///< accumulates messages/retransmits across attempts
    SearchCallback done;
  };

  PinState* find_pin(std::uint64_t pin_id);
  /// Sends (or resends) the pin query and arms its timer, if guarded.
  void pin_attempt(std::uint64_t pin_id);

  CumulativeState* find_session(std::uint64_t id);
  void cumulative_step(std::uint64_t session);
  /// Visits cube node `w` for the session: scans from the stored offset,
  /// ships up to the remaining want to the searcher, reports back.
  void cumulative_visit(std::uint64_t session, cube::CubeId w,
                        std::size_t offset);
  void cumulative_finish_batch(std::uint64_t session);
  void cumulative_maybe_complete(std::uint64_t session);

  PeerState& peer_state(sim::EndpointId ep) { return peers_[ep]; }

  // --- Hot-cell replication helpers (all no-ops unless cfg_.hot.enabled) ----

  /// Write-through: mirrors an index mutation into every live holder's
  /// replica table for `u`, keeping replicas byte-identical to the primary.
  void replica_add(cube::CubeId u, const KeywordSet& keywords, ObjectId o);
  void replica_remove(cube::CubeId u, const KeywordSet& keywords, ObjectId o);

  /// Whether `peer` currently holds a replica of cube node `u`.
  bool is_replica_holder(cube::CubeId u, sim::EndpointId peer) const;

  /// Round-robin spread: the replica holder that should serve the next
  /// visit of `w`, or 0 when the owner should (not replicated, or the
  /// cursor landed on the owner's slot). Skips unregistered holders.
  sim::EndpointId pick_replica(cube::CubeId w);

  /// Sends the T_QUERY for plan node `slot` directly to replica holder
  /// `peer` (the spread path of visit_node); the usual step guard covers
  /// loss, and a retransmission goes back through visit_node/pick_replica.
  void visit_replica(std::uint64_t req_id, std::size_t slot,
                     sim::EndpointId peer);

  /// The table to scan for cube node `w` at `ps`: the primary table if
  /// present, else (hot replication only) the peer's replica copy.
  const IndexTable* table_at(const PeerState& ps, cube::CubeId w) const;

  /// Whether a T_QUERY for `w` arriving at `peer` can be answered there:
  /// true for the current owner (an empty table is then a real answer) and
  /// for a holder that still has a replica copy. False means the cell was
  /// demoted (or ownership moved) while the spread visit was in flight —
  /// the arrival must be dropped so the step timer re-picks a serving peer
  /// instead of memoizing a bogus empty scan.
  bool can_serve(sim::EndpointId peer, cube::CubeId w) const;

  /// Re-targets per-cell query-cache capacities in proportion to the
  /// popularity window, holding the total records budget constant.
  void rebalance_caches();

  /// Message-cost sink: invoked with the number of network messages a
  /// protocol step spent, routed to whichever stats object owns the
  /// operation (a Request or a CumulativeState) if it still exists.
  using Charge = std::function<void(std::size_t)>;

  /// Sends a protocol message to the peer playing cube node `target`,
  /// using a cached direct contact when available, otherwise routing
  /// through the DHT; `at_target(peer)` runs at the destination.
  /// `on_failover`, when non-null, fires if a cached contact turned out to
  /// be dead and the send fell back to DHT routing (the surrogate-owner
  /// step failover).
  void send_to_cube_node(sim::EndpointId from, cube::CubeId target,
                         const char* kind, std::size_t bytes,
                         const Charge& charge,
                         std::function<void(sim::EndpointId)> at_target,
                         const std::function<void()>& on_failover = nullptr);

  /// Runs at the root once it is located: scans the root's own table,
  /// builds the plan (cached contributors or the strategy's SBT order) and
  /// starts the first round.
  void start_at_root(Request& req);
  /// Dispatches the next round of plan nodes, or finishes when none remain.
  void start_round(std::uint64_t req_id);
  /// Level-parallel round [begin, end) with co-host coalescing: nodes
  /// sharing a live cached contact (or a picked replica holder) travel as
  /// one VisitBatch; the rest go through visit_node.
  void visit_coalesced(std::uint64_t req_id, std::size_t begin,
                       std::size_t end);
  /// Routes the initial query to the root's peer; retried on timeout.
  void begin_root_route(std::uint64_t req_id);
  /// Degraded-mode serving: re-resolves the root through the DHT and, if
  /// ownership moved (the root peer died), re-aims the coordinator at the
  /// surrogate owner and marks the request degraded.
  void failover_root(std::uint64_t req_id);
  /// Sends (or resends) the T_QUERY for plan node `slot` and arms its step
  /// guard.
  void visit_node(std::uint64_t req_id, std::size_t slot);
  /// Runs at the peer playing the node when a T_QUERY arrives: scans once
  /// (memoized), ships the result batch to the searcher, answers the
  /// coordinator with T_CONT/T_STOP. Idempotent under retransmission.
  void on_query_arrived(std::uint64_t req_id, std::size_t slot,
                        sim::EndpointId peer);
  /// Whether an arrival at `peer` must be dropped because the node's cell
  /// was demoted (or ownership moved) while a spread visit was in flight.
  /// Only with step timers to recover; un-learns the contact if it pointed
  /// at `peer`, so the retransmit re-resolves instead of repeating the drop.
  bool drop_stale_arrival(Request& req, std::size_t slot,
                          sim::EndpointId peer);
  /// First-scan memoization: scans the node at `peer` for the request if
  /// this is the first arrival and — unless `ship` is false — ships the
  /// batch to the searcher (replaying the memoized batch on retransmitted
  /// arrivals). With ship=false the caller owns delivery (the VisitBatch
  /// path merges several nodes' batches into one message) and, when
  /// retransmission is off, releasing the memoized batches afterwards.
  NodeRecord::Target& ensure_scan(Request& req, std::size_t slot,
                                  sim::EndpointId peer, bool ship = true);
  /// Sends one merged VisitBatch message covering this round's plan nodes
  /// co-hosted at `peer`, arming the usual per-node step guards.
  void send_visit_batch(std::uint64_t req_id, sim::EndpointId peer,
                        const std::vector<std::size_t>& slots);
  /// Runs at the co-host peer: scans every node of the batch (memoized),
  /// ships one merged result message to the searcher and one merged
  /// control reply to the coordinator. Idempotent under retransmission.
  void on_visit_batch_arrived(std::uint64_t req_id,
                              const std::vector<std::size_t>& slots,
                              sim::EndpointId peer);
  /// Concatenates the delivered per-node batches in dispatch order.
  std::vector<Hit> assemble_hits(const Request& req) const;
  void on_results(std::uint64_t req_id, std::size_t slot,
                  const HitBatchPool::Batch& batch);
  void on_node_answered(std::uint64_t req_id, std::size_t slot,
                        sim::EndpointId peer, std::size_t c1);
  /// Arms a guard's next attempt, waiting resend_delay(++g.attempts). On
  /// expiry `find()` re-locates the guard (nullptr: its owner is gone or
  /// the step settled meanwhile), then `expire(spent)` runs, where spent
  /// means the step used up its max_retries retransmissions.
  template <typename Find, typename Expire>
  void arm(Guard& g, Find find, Expire expire);
  /// Counts one retransmission of a request step (trace "retransmit").
  void note_retransmit(Request& req, std::uint64_t a, std::uint64_t b = 0);
  void arm_step_guard(std::uint64_t req_id, std::size_t slot);
  /// Sends (or resends) the final done notification to the searcher.
  void send_done(std::uint64_t req_id);
  /// Re-ships result batches the searcher is still missing after done.
  void arm_repair_guard(std::uint64_t req_id);
  /// Gives up on the request: cancels timers, delivers partial hits with
  /// stats.failed set, erases the request.
  void abort_request(std::uint64_t req_id);
  /// Cancels every pending timer owned by the request.
  void release_timers(Request& req);
  /// Records the traversal summary and sends done. The result is complete
  /// iff the plan spans the subhypercube and did not stop early.
  void finish(std::uint64_t req_id, bool stopped_early);
  void maybe_complete(std::uint64_t req_id);
  Request* find(std::uint64_t req_id);
  void emit(std::uint64_t request, const char* point, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    if (trace_) trace_(Trace{request, point, a, b});
  }

  std::size_t room(const Request& req) const;

  /// Delay before the timer guarding attempt `attempt` (1-based) of a
  /// protocol step fires. Attempt 1 = step_timeout exactly, no RNG draw;
  /// later attempts back off exponentially to backoff_cap plus jitter.
  sim::Time resend_delay(int attempt);

  dht::Dolr& dolr_;
  dht::Overlay& overlay_;
  net::Transport& net_;
  Config cfg_;
  cube::Hypercube cube_;
  KeywordHasher hasher_;
  std::unordered_map<sim::EndpointId, PeerState> peers_;
  /// Recycled scan buffers for Visit::batch (see hit_pool.hpp). Mutable
  /// bookkeeping only; lookups stay logically const.
  HitBatchPool hit_pool_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Request>> requests_;
  std::unordered_map<std::uint64_t, std::unique_ptr<CumulativeState>>
      sessions_;
  std::unordered_map<std::uint64_t, std::unique_ptr<PinState>> pins_;
  std::uint64_t next_request_ = 1;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_pin_ = 1;
  std::uint64_t mutation_epoch_ = 0;
  TraceFn trace_;
  /// Jitter stream for backed-off retransmissions. Dedicated (never shared
  /// with hashing or the fabric's latency stream) so enabling backoff
  /// cannot perturb any other seeded draw sequence.
  Rng backoff_rng_;
  // Hot-cell replication state (empty unless cfg_.hot.enabled).
  std::unordered_map<cube::CubeId, ReplicaSet> replicas_;
  PopularityWindow popularity_;
  std::uint64_t replica_promotions_ = 0;
  std::uint64_t replica_demotions_ = 0;
  std::uint64_t replica_spread_visits_ = 0;
  std::uint64_t replica_entries_copied_ = 0;
};

}  // namespace hkws::index
