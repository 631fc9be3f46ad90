// The split-overlay deployment of the hypercube keyword index: the logical
// peers of ONE overlay divided across OS processes, each process owning the
// index tables of the cube nodes whose serving peer hashes into its slice.
//
// Where LogicalIndex holds every node in-process and OverlayIndex runs the
// protocol as closure-based messages inside one transport, PeerSlice speaks
// the real wire: every protocol step of docs/PROTOCOL.md (kws.insert,
// kws.t_query, kws.results, kws.t_cont/t_stop, kws.s_reply, kws.done) is a
// serialized frame routed through Transport::send_payload, so a step whose
// destination peer lives in another process crosses a socket, and a step
// whose destination is local loops through the same codec. The coordinator
// of a superset search is the process owning the root's serving peer; it
// mirrors LogicalIndex::search_top_down exactly — same visit order, same
// early termination, same per-step message accounting — and ships ONE final
// kws.s_reply with the hits assembled in visit order, so the hit sequence
// is byte-for-byte the LogicalIndex sequence no matter how peers are split
// or how replies interleave. (The reply itself is one extra message, the
// same accounting convention as OverlayIndex's done notification:
// stats.messages == LogicalIndex's count + 1.)
//
// Loss tolerance (the UDP backend, FaultTransport): every guarded step —
// publish/withdraw, pin, search initiation, each coordinator visit, the
// final reply — carries a retransmission timer (`step_timeout` ticks,
// `max_retries` attempts). Steps are idempotent: duplicate inserts are
// absorbed by IndexTable::add, re-scanned visits return identical results
// against a quiescent index, and the coordinator keeps finished replies
// as tombstones so a stale initiation retransmit re-sends the answer
// instead of re-running the search. Publishes are acknowledged (kws.done
// back to the publisher) — on a lossy wire, settle all publishes before
// querying.
//
// Threading: every public operation marshals onto the transport's dispatch
// strand (schedule_in(0)), where the payload handler and all timers also
// run — the protocol state needs no locks. Callbacks fire on the strand.
// Stop the transport before destroying the slice.
//
// Ownership is computed, not negotiated: peers 1..n_peers take ring
// positions from the salted-hash idiom of ChordNetwork, cube node u is
// served by the successor of mix64(u ^ ring_salt), and peer p lives in
// process rank (p-1) % procs. Every process derives the identical map from
// the shared Config, so there is no membership traffic to bootstrap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/keyword.hpp"
#include "cube/hypercube.hpp"
#include "dht/node_id.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/search_types.hpp"
#include "net/transport.hpp"

namespace hkws::index {

class PeerSlice {
 public:
  struct Config {
    int r = 8;  ///< hypercube dimension
    std::uint64_t ring_salt = seeds::kCubeToDht;  ///< cube node -> ring key
    int ring_bits = 32;
    std::uint64_t node_seed = 42;  ///< peer endpoint -> ring position
    net::EndpointId n_peers = 4;   ///< total peers, endpoints 1..n_peers
    int procs = 1;                 ///< processes sharing the overlay
    int rank = 0;                  ///< this process's slice (0-based)
    /// Retransmission timeout per guarded protocol step, in transport
    /// ticks. 0 disables retransmission (reliable wire: sim, TCP).
    net::Time step_timeout = 0;
    int max_retries = 3;  ///< resends before a step is declared failed
  };

  using SearchCallback = std::function<void(SearchResult)>;
  /// Publish/withdraw acknowledgment (the owner applied the entry).
  using AckCallback = std::function<void()>;

  /// Registers this rank's peer endpoints on `net` and installs the
  /// transport's payload handler (one slice per transport). Addresses of
  /// the other ranks' endpoints are the harness's business:
  /// net.set_peer_address(ep, ...) for every ep with rank_of(ep) != rank.
  PeerSlice(net::Transport& net, Config cfg);
  ~PeerSlice();

  PeerSlice(const PeerSlice&) = delete;
  PeerSlice& operator=(const PeerSlice&) = delete;

  // --- Deterministic ownership map (identical in every process) ----------

  /// The peer endpoint serving cube node `u` (ring successor).
  net::EndpointId peer_of(cube::CubeId u) const;

  /// The process rank owning peer endpoint `ep`.
  int rank_of(net::EndpointId ep) const {
    return static_cast<int>((ep - 1) % static_cast<net::EndpointId>(cfg_.procs));
  }

  bool local_peer(net::EndpointId ep) const { return rank_of(ep) == cfg_.rank; }

  /// The endpoint this slice publishes and searches from (its first peer).
  net::EndpointId home() const noexcept { return home_; }

  const Config& config() const noexcept { return cfg_; }
  const cube::Hypercube& cube() const noexcept { return cube_; }
  const KeywordHasher& hasher() const noexcept { return hasher_; }

  // --- Object maintenance (paper §3.5, acknowledged) ----------------------

  /// Indexes `object` at F_h(keywords)'s serving peer; `acked` fires on the
  /// dispatch strand once the owner confirms (kws.done). Empty keyword
  /// sets are rejected, matching LogicalIndex.
  void publish(ObjectId object, const KeywordSet& keywords,
               AckCallback acked = {});
  void withdraw(ObjectId object, const KeywordSet& keywords,
                AckCallback acked = {});

  // --- Search -------------------------------------------------------------

  /// Pin search: objects indexed under exactly `keywords`. Stats match
  /// LogicalIndex::pin_search (1 node, 2 messages, 1 round).
  void pin_search(const KeywordSet& keywords, SearchCallback done);

  /// Superset search, top-down sequential (the paper's main algorithm).
  /// Hits and nodes_contacted/rounds/complete match LogicalIndex
  /// byte-for-byte; messages is LogicalIndex's count + 1 (the final reply,
  /// OverlayIndex's convention).
  void superset_search(const KeywordSet& query, std::size_t threshold,
                       SearchCallback done);

  // --- Introspection (call only when the transport is quiescent) ----------

  /// <K, object> pairs held by this process's slice of the index.
  std::size_t local_object_count() const;

  /// Cube nodes with a non-empty local table.
  std::size_t local_table_count() const;

 private:
  // Retransmittable client-side step: the frame to resend plus its timer.
  struct PendingStep {
    net::EndpointId to = 0;
    net::MsgKind kind = net::MsgKind::kOpaque;
    net::WireMessage msg;
    net::Transport::TimerId timer = 0;
    int retries = 0;
    std::size_t retransmits = 0;
  };
  struct PendingAck : PendingStep {
    AckCallback cb;
  };
  struct PendingSearch : PendingStep {
    SearchCallback cb;
  };

  /// One superset search being coordinated by this process (it owns the
  /// root's serving peer). Mirrors LogicalIndex::search_top_down state.
  struct Coordination {
    KeywordSet query;
    cube::CubeId root = 0;
    std::size_t threshold = 0;       ///< 0 = all of O_K
    net::EndpointId searcher = 0;    ///< reply target
    net::EndpointId self = 0;        ///< the root's serving peer (reply from)
    std::vector<Hit> hits;           ///< assembled in visit order
    SearchStats stats;
    bool stopped_early = false;
    std::deque<std::pair<cube::CubeId, int>> queue;  ///< (node, dim) pairs
    // The in-flight sequential visit.
    bool visiting = false;
    cube::CubeId visit_node = 0;
    int visit_dim = 0;
    std::uint64_t visit_want = 0;  ///< room shipped in the query (0 = all)
    bool have_control = false;
    bool control_stop = false;
    std::uint64_t control_count = 0;
    bool have_results = false;
    std::vector<Hit> results;
    net::Transport::TimerId timer = 0;
    int retries = 0;
  };

  /// A finished search kept as a tombstone until (and after) the searcher
  /// acks, so stale initiation retransmits re-send the answer instead of
  /// re-running the traversal.
  struct DoneReply {
    net::SearchReplyMsg reply;
    net::EndpointId searcher = 0;
    net::EndpointId self = 0;
    net::Transport::TimerId timer = 0;
    int retries = 0;
    bool acked = false;
  };

  /// Request ids embed the issuing endpoint so they never collide across
  /// processes (every process numbers from 1).
  std::uint64_t fresh_id() { return (home_ << 40) | next_id_++; }

  void on_payload(net::EndpointId from, net::EndpointId to, net::MsgKind kind,
                  const net::WireMessage& msg);

  void start_entry(net::MsgKind kind, ObjectId object,
                   const KeywordSet& keywords, AckCallback acked);

  // Server side (owner of the addressed table).
  void on_entry(net::EndpointId to, net::MsgKind kind, const net::EntryMsg& m);
  void on_pin(net::EndpointId to, const net::PinMsg& m);
  void on_query(net::EndpointId to, const net::QueryMsg& m);
  void serve_visit(net::EndpointId to, const net::QueryMsg& m);

  // Coordinator side.
  void start_coordination(net::EndpointId to, const net::QueryMsg& m);
  void advance(std::uint64_t id);
  void send_visit(std::uint64_t id, Coordination& c);
  void try_complete_step(std::uint64_t id, Coordination& c);
  void on_results(const net::HitsMsg& m);
  void on_control(const net::ControlMsg& m);
  void on_visit_timeout(std::uint64_t id);
  void finish(std::uint64_t id, bool failed);
  void send_reply(std::uint64_t id, DoneReply& d);
  void on_reply_timeout(std::uint64_t id);

  // Client side.
  void on_pin_reply(const net::HitsMsg& m);
  void on_search_reply(net::EndpointId from, net::EndpointId to,
                       const net::SearchReplyMsg& m);
  void on_done(const net::DoneMsg& m);
  void on_ack_timeout(std::uint64_t id);
  void on_pin_timeout(std::uint64_t id);
  void on_search_timeout(std::uint64_t id);

  /// Appends up to `room` superset matches of `query` from node `u`'s
  /// local table (kUnlimited = all), LogicalIndex::collect_at's order.
  std::size_t collect_local(cube::CubeId u, const KeywordSet& query,
                            std::size_t room, std::vector<Hit>& out) const;

  /// Arms `slot` to fire `fn` after `delay` ticks; no-op (slot = 0) when
  /// retransmission is disabled (step_timeout == 0).
  void arm(net::Transport::TimerId& slot, net::Time delay,
           std::function<void()> fn);

  net::Transport& net_;
  Config cfg_;
  cube::Hypercube cube_;
  KeywordHasher hasher_;
  dht::RingSpace space_;
  std::vector<std::pair<dht::RingId, net::EndpointId>> ring_;  ///< sorted
  net::EndpointId home_ = 0;
  std::uint64_t next_id_ = 1;

  /// Tables of the cube nodes served by this process's peers, lazily
  /// materialized (the cube is sparse per slice).
  std::unordered_map<cube::CubeId, IndexTable> tables_;

  std::unordered_map<std::uint64_t, PendingAck> pubs_;
  std::unordered_map<std::uint64_t, PendingSearch> pins_;
  std::unordered_map<std::uint64_t, PendingSearch> searches_;
  std::unordered_map<std::uint64_t, Coordination> coords_;
  std::unordered_map<std::uint64_t, DoneReply> done_replies_;
};

}  // namespace hkws::index
