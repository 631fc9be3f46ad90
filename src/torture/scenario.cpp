#include "torture/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "cubenet/hypercup_index.hpp"
#include "cubenet/hypercup_network.hpp"
#include "dht/chord_network.hpp"
#include "dht/pastry_network.hpp"
#include "index/decomposed.hpp"
#include "index/logical_index.hpp"
#include "index/ranking.hpp"
#include "index/service.hpp"
#include "maint/maintenance.hpp"
#include "net/fault_transport.hpp"
#include "net/ledger.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace hkws::torture {

namespace {

using index::Hit;
using index::SearchResult;
using index::SearchStrategy;

/// Stream salts: workload, sizing, and network randomness never alias each
/// other (or the fault plan's stream) even though all derive from one seed.
constexpr std::uint64_t kConfigSalt = 0xc0f1650aa1b2c3d4ULL;
constexpr std::uint64_t kWorkloadSalt = 0x3031c10adbeefca7ULL;
constexpr std::uint64_t kNetSalt = 0x5e7700d5a9b8c7d6ULL;

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

/// The lossless serial oracle: the ground-truth object -> keyword-set map,
/// updated in workload order while mutations are quiesced.
struct Oracle {
  std::map<ObjectId, KeywordSet> live;

  std::map<ObjectId, KeywordSet> matches(const KeywordSet& query) const {
    std::map<ObjectId, KeywordSet> out;
    for (const auto& [id, k] : live)
      if (query.subset_of(k)) out.emplace(id, k);
    return out;
  }
};

/// Execution substrate the workload engine pumps against. Exactly one of
/// the three modes is active:
///
///  * sim  — `clock` set: the deterministic event queue. Every method is a
///           thin alias for the exact calls the engine made before the TCP
///           backend existed (post_sync is a plain direct call, step() is
///           clock->step(), ...), so simulator runs stay bit-identical.
///  * socket — `sock` set: the real runtime (TCP streams or UDP
///           datagrams, both net::SocketTransport). Protocol state machines
///           are strand-confined, so anything that touches them (op
///           initiation, registry/occupancy reads, plane control) is
///           marshaled onto the dispatch strand via post_sync; "pumping" is
///           wall-clock sleep in transport ticks; draining is wait_idle.
///  * in-process — neither set: synchronous deployments; async methods are
///           no-ops.
///
/// Thread-safety protocol for socket mode, relied on throughout execute():
/// completion callbacks run on the strand and write into the report; the
/// main thread reads the report only after observing the (atomic)
/// outstanding-operation count hit zero, and every callback decrements the
/// count *after* its report writes — the release/acquire pair that makes
/// those writes visible. post_sync is the fence for everything else.
struct Runtime {
  sim::EventQueue* clock = nullptr;     ///< sim mode
  net::SocketTransport* sock = nullptr; ///< socket mode (tcp or udp)
  /// Wire-accounting source (the ledger identities); null in-process.
  net::Transport* transport = nullptr;
  /// The dispatch strand's thread id (post_sync re-entrancy guard),
  /// captured by capture_strand().
  std::thread::id strand{};
  /// Set once the transport has been stopped (hang bail-out): the strand is
  /// gone, every handler already ran or never will, direct calls are safe.
  bool halted = false;

  bool is_sim() const { return clock != nullptr; }
  bool is_socket() const { return sock != nullptr; }
  bool has_async() const { return is_sim() || is_socket(); }

  sim::Time now() const {
    if (clock != nullptr) return clock->now();
    if (sock != nullptr) return sock->now();
    return 0;
  }

  /// Runs `fn` serialized with protocol handlers and waits for completion.
  /// Sim/in-process: a direct call (the event loop never runs concurrently
  /// with the engine). Socket: marshaled onto the dispatch strand;
  /// re-entrant when already on it.
  void post_sync(const std::function<void()>& fn) {
    if (sock == nullptr || halted ||
        std::this_thread::get_id() == strand) {
      fn();
      return;
    }
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    sock->schedule_in(0, [&] {
      fn();
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }

  /// Learns the dispatch strand's thread id (socket mode; call before
  /// traffic).
  void capture_strand() {
    if (sock == nullptr) return;
    std::thread::id id{};
    post_sync([&id] { id = std::this_thread::get_id(); });
    strand = id;
  }

  /// Happens-before barrier with the strand (no-op off socket mode).
  void fence() {
    if (sock != nullptr) post_sync([] {});
  }

  /// One pump unit: one sim event, or one wall-clock transport tick.
  /// Returns false when a sim queue is exhausted.
  bool step() {
    if (clock != nullptr) return clock->step();
    if (sock != nullptr && !halted) {
      std::this_thread::sleep_for(sock->tick());
      return true;
    }
    return false;
  }

  /// Advances `ticks` of transport time (sim: run_until; sockets: wall
  /// sleep).
  void run_window(sim::Time ticks) {
    if (clock != nullptr) {
      clock->run_until(clock->now() + ticks);
    } else if (sock != nullptr && !halted) {
      std::this_thread::sleep_for(sock->tick() * ticks);
    }
  }

  /// Bounded drain: lets a burst land without requiring full quiescence
  /// (the maintenance plane's perpetual timers never let the wire go idle
  /// for long). Sim: run a `ticks` window. Sockets: wait for idle up to
  /// the wall-clock equivalent, settling for whatever landed.
  void drain_window(sim::Time ticks) {
    if (clock != nullptr) {
      clock->run_until(clock->now() + ticks);
    } else if (sock != nullptr && !halted) {
      sock->wait_idle(std::chrono::duration_cast<std::chrono::milliseconds>(
                          sock->tick() * ticks) +
                      std::chrono::milliseconds(1));
    }
  }

  /// Full drain to a quiet wire. Sim: run the queue dry. Sockets:
  /// wait_idle with a generous bound (in-flight frames, queued handlers and
  /// plain scheduled events — including FaultTransport's delayed
  /// redeliveries — all count toward idleness; cancelable timers do not).
  void drain_full() {
    if (clock != nullptr) {
      clock->run();
    } else if (sock != nullptr && !halted) {
      sock->wait_idle(std::chrono::seconds(30));
    }
  }

  /// Stops the socket runtime in place (hang bail-out: outstanding
  /// callbacks reference engine stack frames, so the strand must die before
  /// the engine returns). No-op off socket mode.
  void halt() {
    if (sock != nullptr && !halted) {
      sock->stop();
      halted = true;
    }
  }

  /// Live cancelable timers (the timer-leak invariant's left-hand side).
  std::size_t live_timer_count() const {
    if (clock != nullptr) return clock->live_timer_count();
    if (sock != nullptr) return sock->live_timer_count();
    return 0;
  }
};

/// Deployment-specific operations the generic workload drives. Optional
/// hooks are null when a deployment lacks the capability.
struct Ops {
  std::function<void(ObjectId, const KeywordSet&, std::function<void()>)>
      publish;
  std::function<void(ObjectId, const KeywordSet&, std::function<void()>)>
      withdraw;
  std::function<void(const KeywordSet&,
                     std::function<void(const SearchResult&)>)>
      pin;
  std::function<std::uint64_t(const KeywordSet&, std::size_t,
                              std::function<void(const SearchResult&)>)>
      search;
  std::function<bool(std::uint64_t)> cancel;  ///< null: not cancellable
  /// Cumulative browse: fetch everything in pages of `page`, then call back
  /// with the union and whether the session terminated cleanly.
  std::function<void(const KeywordSet&, std::size_t,
                     std::function<void(const std::vector<Hit>&, bool)>)>
      browse;
  /// Returns a violation detail if index occupancy disagrees with the
  /// oracle's live set, nullopt otherwise.
  std::function<std::optional<std::string>(
      const std::map<ObjectId, KeywordSet>&)>
      check_occupancy;
  std::function<std::size_t()> in_flight;  ///< null: no request registry
  /// Abrupt peer failure + repair; returns the oracle objects whose index
  /// entries died with the peer. Null when churn is unsupported.
  std::function<std::vector<ObjectId>(
      std::uint64_t, const std::map<ObjectId, KeywordSet>&)>
      fail_peer;
  sim::EventQueue* clock = nullptr;  ///< null for in-process deployments
  sim::Network* net = nullptr;
  /// Execution substrate. Drivers that support the tcp backend supply one;
  /// when null, execute() builds a sim/in-process Runtime from clock/net.
  Runtime* rt = nullptr;
  /// Continuous churn: the self-healing plane racing the workload (null
  /// when disabled — the control run). Not owned.
  maint::MaintenancePlane* plane = nullptr;
  /// Credit/parallel schemes may return slightly more than `threshold`.
  bool overshoot_ok = false;
};

std::string describe_query(const KeywordSet& q, std::size_t threshold) {
  std::ostringstream out;
  out << "query=" << q.to_string() << " threshold=" << threshold;
  return out.str();
}

/// Checks one completed superset search against the oracle; appends
/// violations to `rep`. With `relaxed` (continuous churn: entries may be
/// transiently unreachable while repair races the query), only the
/// soundness half is enforced — no false positives, no duplicates, correct
/// payloads, monotone ranking — and completeness / delivery counts are
/// skipped; the post-convergence verification phase restores the strict
/// checks.
void check_search_result(const SearchResult& r, const KeywordSet& query,
                         std::size_t threshold,
                         const std::map<ObjectId, KeywordSet>& expected,
                         bool overshoot_ok, ScenarioReport& rep,
                         bool relaxed = false) {
  // No false positives, correct hit payloads, no duplicate objects — these
  // hold even for failed/partial results.
  std::set<ObjectId> seen;
  for (const Hit& h : r.hits) {
    if (!seen.insert(h.object).second) {
      rep.violations.push_back(
          {"oracle", "duplicate object " + std::to_string(h.object) +
                         " in hits; " + describe_query(query, threshold)});
      return;
    }
    const auto it = expected.find(h.object);
    if (it == expected.end()) {
      rep.violations.push_back(
          {"oracle", "false positive object " + std::to_string(h.object) +
                         "; " + describe_query(query, threshold)});
      return;
    }
    if (!(h.keywords == it->second)) {
      rep.violations.push_back(
          {"oracle", "hit payload mismatch for object " +
                         std::to_string(h.object) + "; " +
                         describe_query(query, threshold)});
      return;
    }
  }

  // Ranking: ordering by extra-keyword count must be monotone and preserve
  // the hit set.
  std::vector<Hit> ordered = r.hits;
  index::order_hits(ordered, query, index::RankingPreference::kGeneralFirst);
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    if (ordered[i - 1].keywords.size() > ordered[i].keywords.size()) {
      rep.violations.push_back(
          {"ranking", "extra-keyword count not monotone after order_hits; " +
                          describe_query(query, threshold)});
      return;
    }
  }
  if (ids_of(ordered) != ids_of(r.hits)) {
    rep.violations.push_back(
        {"ranking", "order_hits changed the hit set; " +
                        describe_query(query, threshold)});
    return;
  }

  if (r.stats.failed) return;  // partial results: subset checks were enough
  if (relaxed) {
    // Mid-churn a complete-looking traversal can still miss entries that
    // sat on a just-killed peer; only over-delivery stays checkable.
    if (threshold != 0 && !overshoot_ok && r.hits.size() > threshold)
      rep.violations.push_back(
          {"oracle", "thresholded search over-delivered (" +
                         std::to_string(r.hits.size()) + " > " +
                         std::to_string(threshold) + "); " +
                         describe_query(query, threshold)});
    return;
  }

  if (threshold == 0) {
    if (!r.stats.complete) {
      rep.violations.push_back(
          {"oracle", "exhaustive search not complete; " +
                         describe_query(query, threshold)});
      return;
    }
    if (ids_of(r.hits) != [&] {
          std::set<ObjectId> ids;
          for (const auto& [id, k] : expected) ids.insert(id);
          return ids;
        }()) {
      rep.violations.push_back(
          {"oracle", "exhaustive result set differs from oracle (" +
                         std::to_string(r.hits.size()) + " vs " +
                         std::to_string(expected.size()) + "); " +
                         describe_query(query, threshold)});
    }
    return;
  }

  const std::size_t want = std::min(threshold, expected.size());
  if (r.hits.size() < want) {
    rep.violations.push_back(
        {"oracle", "thresholded search under-delivered (" +
                       std::to_string(r.hits.size()) + " < " +
                       std::to_string(want) + "); " +
                       describe_query(query, threshold)});
    return;
  }
  if (!overshoot_ok && r.hits.size() > threshold) {
    rep.violations.push_back(
        {"oracle", "thresholded search over-delivered (" +
                       std::to_string(r.hits.size()) + " > " +
                       std::to_string(threshold) + "); " +
                       describe_query(query, threshold)});
  }
}

/// Generic workload engine: drives Ops through cfg.rounds of quiesced
/// mutations followed by overlapping searches, applying churn events and
/// checking every invariant.
void execute(const ScenarioConfig& cfg, Ops& ops, ScenarioReport& rep,
             obs::Tracer* tracer) {
  Rng wl(mix64(cfg.seed ^ kWorkloadSalt));
  Oracle oracle;
  ObjectId next_id = 1;

  Runtime local_rt;
  local_rt.clock = ops.clock;
  local_rt.transport = ops.net;
  Runtime& rt = ops.rt != nullptr ? *ops.rt : local_rt;

  const auto ts = [&rt]() -> sim::Time { return rt.now(); };
  if (tracer != nullptr)
    tracer->instant(ts(), 0, "scenario", "torture", cfg.seed);

  auto make_kws = [&](std::size_t lo, std::size_t hi) {
    std::vector<Keyword> words;
    const std::size_t n = lo + wl.next_below(hi - lo + 1);
    for (std::size_t i = 0; i < n; ++i) {
      // Built with += (not "w" + to_string(...)): GCC 12's -Wrestrict
      // false-positives on the rvalue operator+ overload at -O2.
      Keyword w = "w";
      w += std::to_string(wl.next_below(cfg.vocab));
      words.push_back(std::move(w));
    }
    return KeywordSet(std::move(words));
  };

  // Recurring queries hit the query caches repeatedly across mutation
  // rounds — the sequence that flushes out cache-staleness bugs. Under the
  // hot-spot workload they dominate (zipf-like head), hammering the same
  // few cube cells so the load-balance invariant has something to measure.
  std::vector<KeywordSet> recurring;
  for (int i = 0; i < 3; ++i)
    recurring.push_back(cfg.hot_spot ? make_kws(2, 3) : make_kws(1, 2));
  const double recurring_share = cfg.hot_spot ? 0.85 : 0.4;

  auto pick_query = [&]() -> KeywordSet {
    if (wl.next_bool(recurring_share))
      return recurring[wl.next_below(recurring.size())];
    if (!oracle.live.empty() && wl.next_bool(0.8)) {
      auto it = oracle.live.begin();
      std::advance(it, wl.next_below(oracle.live.size()));
      const auto& words = it->second.words();
      std::vector<Keyword> pick{words[wl.next_below(words.size())]};
      if (words.size() > 1 && wl.next_bool(0.4))
        pick.push_back(words[wl.next_below(words.size())]);
      return KeywordSet(std::move(pick));
    }
    return make_kws(1, 2);
  };

  // Continuous churn: kills are raw (no oracle-driven repair) and the
  // maintenance plane heals in the background while serving continues.
  const bool continuous = cfg.continuous_churn && ops.fail_peer != nullptr;

  // Publishes and withdraws whose callback has not run yet. Atomic: on
  // sockets the callbacks run on the strand. Shared with the callbacks so
  // a late one outliving this frame (sim queues are destroyed unrun) never
  // touches a dead counter.
  const auto mutations_pending = std::make_shared<std::atomic<std::size_t>>(0);
  const auto mutation_done = [mutations_pending] { --*mutations_pending; };

  auto drain = [&] {
    if (!rt.has_async()) return;
    if (ops.plane != nullptr && ops.plane->running()) {
      // The plane's perpetual timers keep the queue non-empty, so drain a
      // bounded window instead (ample for any mutation burst to land).
      rt.drain_window(400);
      // On sockets the heartbeats in flight keep that window from ever
      // reaching idle, so it may end before the burst has landed. Wait,
      // bounded, for every mutation callback: the workload withdraws only
      // objects whose publish finished.
      if (rt.is_socket()) {
        const sim::Time deadline = rt.now() + 20000;
        while (*mutations_pending > 0 && rt.now() < deadline) rt.step();
      }
    } else {
      rt.drain_full();
    }
  };

  auto do_publish = [&] {
    const ObjectId id = next_id++;
    const KeywordSet k = make_kws(1, 4);
    oracle.live[id] = k;
    if (tracer != nullptr) tracer->instant(ts(), 0, "publish", "torture", id);
    ++*mutations_pending;
    ops.publish(id, k, mutation_done);
    ++rep.mutations;
  };
  // Mutations inside one burst overlap on the wire, and the protocol does
  // not serialize concurrent operations on the *same* object (a withdraw
  // racing its own publish can interleave at the DOLR owner and strand the
  // index entry — a real non-guarantee, not a bug). The workload therefore
  // only withdraws objects published before the current burst.
  auto do_withdraw = [&](ObjectId burst_floor) {
    std::vector<ObjectId> eligible;
    for (const auto& [id, k] : oracle.live)
      if (id < burst_floor) eligible.push_back(id);
    if (eligible.empty()) return;
    const ObjectId id = eligible[wl.next_below(eligible.size())];
    const KeywordSet k = oracle.live.at(id);
    oracle.live.erase(id);
    if (tracer != nullptr) tracer->instant(ts(), 0, "withdraw", "torture", id);
    ++*mutations_pending;
    ops.withdraw(id, k, mutation_done);
    ++rep.mutations;
  };

  // Phase 0: seed corpus.
  for (std::size_t i = 0; i < cfg.objects; ++i) do_publish();
  drain();

  // Peer failures: after the first one, DOLR references may be gone while
  // index entries survive, so withdraws (which go through the DOLR) would
  // desynchronize the oracle. Publishes stay safe.
  bool withdraw_safe = true;

  for (std::size_t round = 0; round < cfg.rounds && rep.ok(); ++round) {
    if (tracer != nullptr) tracer->begin(ts(), 0, "round", "torture", round);
    // --- Churn (abrupt peer failures scheduled for this round) ------------
    if (cfg.churn && ops.fail_peer != nullptr) {
      for (const FaultEvent& ev : rep.plan.events) {
        if (ev.kind != FaultKind::kFailPeer || ev.target != round) continue;
        // With a plane (continuous churn) this only kills; detection and
        // repair are the plane's job.
        const std::vector<ObjectId> lost =
            ops.fail_peer(ev.arg, oracle.live);
        for (ObjectId id : lost) oracle.live.erase(id);
        withdraw_safe = false;
      }
    }

    // --- Quiesced mutation burst -----------------------------------------
    const ObjectId burst_floor = next_id;
    for (std::size_t m = 0; m < cfg.mutations_per_round; ++m) {
      if (withdraw_safe && wl.next_bool(0.4))
        do_withdraw(burst_floor);
      else
        do_publish();
    }
    drain();

    // --- Overlapping search burst ----------------------------------------
    // Atomic (tcp: decremented on the strand, polled by the engine); every
    // callback decrements it only after its report writes are done, so
    // outstanding == 0 implies those writes are visible here.
    std::atomic<std::size_t> outstanding{0};

    for (std::size_t s = 0; s < cfg.searches_per_round; ++s) {
      const double roll = wl.next_double();
      if (roll < 0.15 && !oracle.live.empty()) {
        // Pin search: exact keyword-set match.
        auto it = oracle.live.begin();
        std::advance(it, wl.next_below(oracle.live.size()));
        const KeywordSet k = it->second;
        std::set<ObjectId> expected;
        for (const auto& [id, kw] : oracle.live)
          if (kw == k) expected.insert(id);
        ++outstanding;
        ++rep.searches;
        if (tracer != nullptr) tracer->instant(ts(), 0, "pin", "torture");
        ops.pin(k, [&rep, &outstanding, k, expected,
                    continuous](const SearchResult& r) {
          const std::set<ObjectId> got = ids_of(r.hits);
          if (continuous) {
            // Mid-churn pins may under-deliver, never fabricate.
            if (!std::includes(expected.begin(), expected.end(), got.begin(),
                               got.end()))
              rep.violations.push_back(
                  {"oracle",
                   "pin search false positive; query=" + k.to_string()});
          } else if (got != expected) {
            rep.violations.push_back(
                {"oracle", "pin search mismatch; query=" + k.to_string()});
          }
          --outstanding;  // last: publishes the report writes above
        });
      } else if (roll < 0.3 && ops.browse != nullptr) {
        // Cumulative browse: page through the whole subhypercube.
        const KeywordSet q = pick_query();
        const auto expected = oracle.matches(q);
        const std::size_t page = 1 + wl.next_below(7);
        ++outstanding;
        ++rep.searches;
        if (tracer != nullptr)
          tracer->instant(ts(), 0, "browse", "torture", page);
        ops.browse(q, page,
                   [&rep, &outstanding, q, expected](
                       const std::vector<Hit>& all, bool clean) {
                     if (!clean) {
                       rep.violations.push_back(
                           {"hang", "cumulative session never exhausted; "
                                    "query=" + q.to_string()});
                     } else {
                       std::set<ObjectId> want;
                       for (const auto& [id, k] : expected) want.insert(id);
                       if (ids_of(all) != want)
                         rep.violations.push_back(
                             {"oracle",
                              "cumulative browse set differs from oracle (" +
                                  std::to_string(all.size()) + " vs " +
                                  std::to_string(want.size()) +
                                  "); query=" + q.to_string()});
                     }
                     --outstanding;  // last: publishes the report writes
                   });
      } else {
        const KeywordSet q = pick_query();
        const std::size_t threshold =
            wl.next_bool(0.5) ? 0 : 1 + wl.next_below(8);
        const auto expected = oracle.matches(q);
        const bool try_cancel =
            ops.cancel != nullptr && wl.next_bool(0.2);
        const std::size_t cancel_after =
            try_cancel ? wl.next_below(24) : 0;

        ++outstanding;
        ++rep.searches;
        if (tracer != nullptr)
          tracer->instant(ts(), 0, "superset", "torture", threshold);
        auto cancelled = std::make_shared<bool>(false);
        const bool overshoot_ok = ops.overshoot_ok;
        const std::uint64_t handle = ops.search(
            q, threshold,
            [&rep, &outstanding, q, threshold, expected, cancelled,
             overshoot_ok, continuous](const SearchResult& r) {
              if (*cancelled) {
                rep.violations.push_back(
                    {"cancel", "callback fired after successful cancel; " +
                                   describe_query(q, threshold)});
                return;
              }
              check_search_result(r, q, threshold, expected, overshoot_ok,
                                  rep, continuous);
              --outstanding;  // last: publishes the report writes above
            });
        if (try_cancel && rt.has_async()) {
          // Let the request make some progress, then abandon it.
          for (std::size_t i = 0; i < cancel_after && outstanding > 0; ++i)
            if (!rt.step()) break;
          // A true cancel means the callback will never run (the request
          // is gone), so writing the flag afterwards cannot race it.
          if (ops.cancel(handle)) {
            *cancelled = true;
            --outstanding;
            ++rep.cancels;
            if (tracer != nullptr)
              tracer->instant(ts(), 0, "cancel", "torture", handle);
          }
        }
      }
    }

    // --- Pump to completion; invariants at the quiescence instant ---------
    if (rt.has_async()) {
      // With the plane running the (sim) queue never empties, so a stuck
      // search is caught by a generous time bound instead of queue
      // exhaustion; on tcp there is no queue to exhaust and the bound — in
      // wall-clock transport ticks — is the only hang detector.
      const sim::Time hang_deadline = rt.now() + 60000;
      if (rt.is_sim()) {
        while (outstanding > 0 &&
               (ops.plane == nullptr || ops.clock->now() < hang_deadline) &&
               ops.clock->step()) {
        }
      } else {
        while (outstanding > 0 && rt.now() < hang_deadline) rt.step();
      }
      if (outstanding > 0) {
        rep.violations.push_back(
            {"hang", "event queue drained with " +
                         std::to_string(outstanding.load()) +
                         " operations still outstanding (round " +
                         std::to_string(round) + ")"});
        if (tracer != nullptr) tracer->close_open(ts(), 0);
        // Pending strand callbacks capture this frame; kill the runtime
        // before unwinding (sim queues just get destroyed unrun).
        rt.halt();
        return;
      }
      // The last operation just completed: every terminal transition must
      // have cancelled its timers and dropped its request state. The
      // maintenance plane's own timers (heartbeats, repair ticker) are the
      // one allowed residue. On tcp the "instant" is unobservable from
      // outside the strand — late duplicate deliveries may still be in
      // flight — so quiesce the wire first and take the readings in one
      // strand-serialized block (a consistent snapshot: timers are only
      // armed and cancelled on the strand).
      if (rt.is_socket()) rt.drain_full();
      rt.post_sync([&] {
        const std::size_t allowed =
            ops.plane != nullptr ? ops.plane->armed_timers() : 0;
        if (rt.live_timer_count() != allowed)
          rep.violations.push_back(
              {"timers", std::to_string(rt.live_timer_count()) +
                             " timer(s) still live after all operations "
                             "completed, " + std::to_string(allowed) +
                             " allowed for the maintenance plane (round " +
                             std::to_string(round) + ")"});
        if (ops.in_flight != nullptr && ops.in_flight() != 0)
          rep.violations.push_back(
              {"timers", std::to_string(ops.in_flight()) +
                             " request(s) leaked in the coordinator registry "
                             "(round " + std::to_string(round) + ")"});
      });
      // Drain stragglers (duplicate copies, cancelled-timer husks).
      drain();
    } else if (outstanding != 0) {
      rep.violations.push_back(
          {"hang", "synchronous deployment left operations outstanding"});
      if (tracer != nullptr) tracer->close_open(ts(), 0);
      return;
    }
    if (tracer != nullptr) tracer->end(ts(), 0);
  }

  // --- Convergence phase (continuous churn) -------------------------------
  // After the last fault the plane gets a bounded number of repair windows
  // to report converged(); then strict verification searches must find the
  // oracle's exact live set again — complete, not failed. Without the plane
  // (self_healing off) the same verification runs immediately and shows
  // what breaks: that asymmetry is the invariant this mode exists to pin.
  if (continuous && rt.has_async() && rep.ok()) {
    if (ops.plane != nullptr) {
      constexpr sim::Time kWindow = 100;
      const auto converged = [&] {
        bool c = false;
        rt.post_sync([&] { c = ops.plane->converged(); });
        return c;
      };
      std::size_t w = 0;
      while (!converged() && w < cfg.convergence_budget) {
        rt.run_window(kWindow);
        ++w;
      }
      if (!converged())
        rep.violations.push_back(
            {"convergence",
             "maintenance plane not converged within " +
                 std::to_string(cfg.convergence_budget) +
                 " repair windows of " + std::to_string(kWindow) +
                 " ticks after the last fault"});
    }
    if (rep.ok()) {
      std::vector<KeywordSet> probes = recurring;
      for (const auto& [id, k] : oracle.live) {
        if (probes.size() >= recurring.size() + 3) break;
        probes.push_back(KeywordSet({k.words().front()}));
      }
      for (const KeywordSet& q : probes) {
        const auto expected = oracle.matches(q);
        auto done = std::make_shared<std::atomic<bool>>(false);
        const std::uint64_t handle = ops.search(
            q, 0, [&rep, q, expected, done](const SearchResult& r) {
              if (r.stats.failed || !r.stats.complete) {
                rep.violations.push_back(
                    {"convergence",
                     "post-churn verification search " +
                         std::string(r.stats.failed ? "failed"
                                                    : "incomplete") +
                         "; " + describe_query(q, 0)});
              } else {
                check_search_result(r, q, 0, expected, false, rep);
              }
              done->store(true);  // last: publishes the report writes
            });
        const sim::Time deadline = rt.now() + 20000;
        while (!done->load() && rt.now() < deadline && rt.step()) {
        }
        if (!done->load()) {
          // Silence the straggler before writing the report from this
          // thread (a true cancel guarantees the callback never runs; a
          // failed one means it already did).
          if (rt.is_socket() && ops.cancel != nullptr) ops.cancel(handle);
          rep.violations.push_back(
              {"convergence", "post-churn verification search never "
                              "completed; " + describe_query(q, 0)});
          break;
        }
      }
    }
  }
  if (ops.plane != nullptr) {
    rt.post_sync([&] { ops.plane->stop(); });
  }
  // Final drain so the whole-run invariants see a quiet wire (the
  // verification pumps above stop at first answer, not at empty queue).
  if (rt.has_async()) rt.drain_full();

  // --- Final whole-run invariants ----------------------------------------
  if (ops.check_occupancy != nullptr) {
    rt.post_sync([&] {
      if (auto err = ops.check_occupancy(oracle.live))
        rep.violations.push_back({"occupancy", *err});
    });
  }
  if (rt.transport != nullptr) {
    // Both ledger identities: conservation (churn repair's synchronous
    // lookup hops are recorded as charges) and loss attribution — an
    // unattributed loss is an accounting hole, a double-attributed one an
    // overcount.
    std::string err;
    rt.post_sync([&] {
      const sim::Metrics& m = rt.transport->metrics();
      err = net::ledger::identity_error(m);
      rep.messages = m.counter("net.messages");
      rep.lost = m.counter("net.lost");
    });
    if (!err.empty()) rep.violations.push_back({"conservation", err});
  }
}

/// Sums a per-cube-node load vector.
std::size_t sum_loads(const std::vector<std::size_t>& loads) {
  std::size_t total = 0;
  for (std::size_t l : loads) total += l;
  return total;
}

// --- Deployment drivers -----------------------------------------------------

void run_direct(const ScenarioConfig& cfg, ScenarioReport& rep,
                obs::Tracer* tracer) {
  index::LogicalIndex li(
      {.r = cfg.r, .cache_capacity = cfg.cache_capacity});

  Ops ops;
  ops.publish = [&](ObjectId id, const KeywordSet& k,
                    std::function<void()> done) {
    li.insert(id, k);
    done();
  };
  ops.withdraw = [&](ObjectId id, const KeywordSet& k,
                     std::function<void()> done) {
    li.remove(id, k);
    done();
  };
  ops.pin = [&](const KeywordSet& q,
                std::function<void(const SearchResult&)> cb) {
    cb(li.pin_search(q));
  };
  ops.search = [&](const KeywordSet& q, std::size_t t,
                   std::function<void(const SearchResult&)> cb) {
    cb(li.superset_search(q, t, cfg.strategy));
    return std::uint64_t{0};
  };
  ops.browse = [&](const KeywordSet& q, std::size_t page,
                   std::function<void(const std::vector<Hit>&, bool)> cb) {
    auto session = li.begin_cumulative(q);
    std::vector<Hit> all;
    std::size_t guard = 0;
    while (!session.exhausted()) {
      if (++guard > 100000) {
        cb(all, false);
        return;
      }
      const SearchResult r = session.next(page);
      all.insert(all.end(), r.hits.begin(), r.hits.end());
    }
    cb(all, true);
  };
  ops.check_occupancy =
      [&](const std::map<ObjectId, KeywordSet>& live)
      -> std::optional<std::string> {
    if (li.object_count() != live.size())
      return "object_count " + std::to_string(li.object_count()) +
             " != oracle " + std::to_string(live.size());
    if (sum_loads(li.loads()) != li.object_count())
      return "per-node loads do not sum to object_count";
    return std::nullopt;
  };
  execute(cfg, ops, rep, tracer);
}

void run_decomposed(const ScenarioConfig& cfg, ScenarioReport& rep,
                    obs::Tracer* tracer) {
  constexpr std::size_t kGroups = 2;
  index::DecomposedIndex dec =
      index::DecomposedIndex::hashed(kGroups, cfg.r);

  Ops ops;
  ops.publish = [&](ObjectId id, const KeywordSet& k,
                    std::function<void()> done) {
    dec.insert(id, k);
    done();
  };
  ops.withdraw = [&](ObjectId id, const KeywordSet& k,
                     std::function<void()> done) {
    dec.remove(id, k);
    done();
  };
  ops.pin = [&](const KeywordSet& q,
                std::function<void(const SearchResult&)> cb) {
    cb(dec.pin_search(q));
  };
  ops.search = [&](const KeywordSet& q, std::size_t t,
                   std::function<void(const SearchResult&)> cb) {
    cb(dec.superset_search(q, t, cfg.strategy));
    return std::uint64_t{0};
  };
  ops.check_occupancy =
      [&](const std::map<ObjectId, KeywordSet>& live)
      -> std::optional<std::string> {
    for (std::size_t g = 0; g < kGroups; ++g) {
      std::size_t expected = 0;
      for (const auto& [id, k] : live) {
        if (!dec.projection(k, g).empty()) ++expected;
      }
      const std::size_t have = dec.group_cube(g).object_count();
      if (have != expected)
        return "group " + std::to_string(g) + " holds " +
               std::to_string(have) + " objects, oracle projects " +
               std::to_string(expected);
    }
    return std::nullopt;
  };
  execute(cfg, ops, rep, tracer);
}

void run_hypercup(const ScenarioConfig& cfg, const FaultPlan& plan,
                  ScenarioReport& rep, obs::Tracer* tracer) {
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 10),
                   mix64(cfg.seed ^ kNetSalt));
  auto injector = std::make_unique<FaultInjector>(plan);
  FaultInjector* inj = injector.get();
  net.set_fault_model(std::move(injector));
  if (tracer != nullptr) obs::attach_network(*tracer, net);
  cubenet::HyperCupNetwork hnet(net, {.r = cfg.r});
  cubenet::HyperCupIndex hidx(hnet);
  Rng pubs(mix64(cfg.seed ^ kNetSalt ^ 1));
  const auto publisher = [&] {
    return static_cast<cube::CubeId>(pubs.next_below(hnet.size()));
  };

  Ops ops;
  ops.clock = &clock;
  ops.net = &net;
  ops.overshoot_ok = true;  // credit-based forwarding may exceed threshold
  ops.publish = [&](ObjectId id, const KeywordSet& k,
                    std::function<void()> done) {
    hidx.insert(publisher(), id, k, [done](int) { done(); });
  };
  ops.withdraw = [&](ObjectId id, const KeywordSet& k,
                     std::function<void()> done) {
    hidx.remove(publisher(), id, k, [done](int) { done(); });
  };
  ops.pin = [&](const KeywordSet& q,
                std::function<void(const SearchResult&)> cb) {
    hidx.pin_search(0, q, std::move(cb));
  };
  ops.search = [&](const KeywordSet& q, std::size_t t,
                   std::function<void(const SearchResult&)> cb) {
    hidx.superset_search(0, q, t, std::move(cb));
    return std::uint64_t{0};
  };
  ops.check_occupancy =
      [&](const std::map<ObjectId, KeywordSet>& live)
      -> std::optional<std::string> {
    const std::size_t have = sum_loads(hidx.loads());
    if (have != live.size())
      return "index holds " + std::to_string(have) + " entries, oracle has " +
             std::to_string(live.size());
    return std::nullopt;
  };
  execute(cfg, ops, rep, tracer);
  rep.faults_applied = inj->applied();
}

/// Builds the socket substrate for a non-sim backend: TCP streams or UDP
/// datagrams (one envelope frame per datagram), seeded from the scenario.
std::unique_ptr<net::SocketTransport> make_socket(const ScenarioConfig& cfg) {
  if (cfg.backend == Backend::kUdp) {
    net::UdpTransport::Config uc;
    uc.seed = mix64(cfg.seed ^ kNetSalt);
    return std::make_unique<net::UdpTransport>(uc);
  }
  net::TcpTransport::Config tc;
  tc.seed = mix64(cfg.seed ^ kNetSalt);
  return std::make_unique<net::TcpTransport>(tc);
}

/// The wire a fault-injected scenario runs on: the sim fabric, or a real
/// SocketTransport (TCP or UDP) wrapped in the FaultTransport decorator so
/// the same plan injects below the protocol. Faults start only at arm().
struct FaultedWire {
  FaultedWire(const ScenarioConfig& cfg, const FaultPlan& plan)
      : injector(std::make_unique<FaultInjector>(plan)), inj(injector.get()) {
    if (cfg.backend != Backend::kSim) {
      sock = make_socket(cfg);
      faulted = std::make_unique<net::FaultTransport>(
          *sock, std::move(injector), mix64(cfg.seed ^ kNetSalt ^ 2));
      transport = faulted.get();
    } else {
      simnet = std::make_unique<sim::Network>(
          clock, std::make_unique<sim::UniformLatency>(1, 12),
          mix64(cfg.seed ^ kNetSalt));
      transport = simnet.get();
      rt.clock = &clock;
    }
    rt.sock = sock.get();
    rt.transport = transport;
    rt.capture_strand();
  }

  /// Starts fault injection, so overlay construction traffic stays
  /// pristine. (The sim installs the model, the decorator arms on the
  /// strand that drives it; either way wire numbering starts at the next
  /// message.)
  void arm() {
    if (faulted != nullptr)
      rt.post_sync([this] { faulted->arm(); });
    else
      simnet->set_fault_model(std::move(injector));
  }

  sim::EventQueue clock;
  std::unique_ptr<FaultInjector> injector;  ///< until the wire takes it
  FaultInjector* inj;
  std::unique_ptr<sim::Network> simnet;
  std::unique_ptr<net::SocketTransport> sock;
  std::unique_ptr<net::FaultTransport> faulted;
  net::Transport* transport = nullptr;
  Runtime rt;
};

/// The service every fault-injected deployment runs: step retransmission
/// with backoff, the mirror cube on the mirrored deployment, hot-cell
/// replication under the hot-spot workload.
index::KeywordSearchService::Options service_options(
    const ScenarioConfig& cfg) {
  index::KeywordSearchService::Options o;
  o.r = cfg.r;
  o.cache_capacity = cfg.cache_capacity;
  // Exercise the VisitBatch path under faults: the conservation and
  // soundness invariants must hold with coalesced rounds too.
  o.coalesce_visits = true;
  o.step_timeout = cfg.retransmission ? 80 : 0;
  o.max_retries = 8;
  // Exponential backoff with seeded jitter on the retries: under a
  // partition window, blind fixed-period retransmission would burn the
  // retry budget into the cut; backoff stretches the schedule across it.
  o.backoff_cap = 640;
  o.backoff_jitter = 40;
  o.backoff_seed = mix64(cfg.seed ^ kNetSalt ^ 3);
  o.mirror_index = cfg.deployment == Deployment::kMirrored;
  // Continuous churn keeps references replicated so the DOLR layer has
  // something to repair from; every other scenario stays unreplicated.
  o.replication_factor = cfg.continuous_churn ? 3 : 1;
  if (cfg.hot_spot) {
    // One popularity window covers the whole run, so the recurring-query
    // head accumulates scans fast enough to cross the hot threshold within
    // the first rounds.
    o.hot.enabled = cfg.hot_replication;
    o.hot.replicas = 3;
    o.hot.window = 1 << 20;
    o.hot.min_scans = 4;
    o.hot.max_hot = 16;
  }
  return o;
}

/// The harness checks the index's raw result; the service wraps it in a
/// ranked answer.
std::function<void(const index::KeywordSearchService::Answer&)> raw(
    std::function<void(const SearchResult&)> cb) {
  return [cb = std::move(cb)](const index::KeywordSearchService::Answer& a) {
    cb(SearchResult{a.hits, a.stats});
  };
}

/// The driver of every deployment built on KeywordSearchService (chord,
/// pastry, and mirrored over Chord), so the harness runs the composition
/// production runs: the service's repair recipe and, on Chord, the
/// MaintenancePlane built from the service.
void run_service(const ScenarioConfig& cfg, const FaultPlan& plan,
                 ScenarioReport& rep, obs::Tracer* tracer) {
  FaultedWire wire(cfg, plan);
  Runtime& rt = wire.rt;
  sim::Network* simnet = wire.simnet.get();
  net::SocketTransport* sock = wire.sock.get();

  std::unique_ptr<dht::Overlay> overlay;
  dht::ChordNetwork* chord = nullptr;
  if (cfg.deployment == Deployment::kPastry) {
    overlay = std::make_unique<dht::PastryNetwork>(
        dht::PastryNetwork::build(*wire.transport, cfg.peers, {}));
  } else {
    auto c = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*wire.transport, cfg.peers, {}));
    chord = c.get();
    overlay = std::move(c);
  }
  index::KeywordSearchService service(*overlay, service_options(cfg));
  wire.arm();
  if (tracer != nullptr && simnet != nullptr)
    obs::attach_network(*tracer, *simnet);

  std::vector<const index::OverlayIndex*> cubes{&service.primary_index()};
  if (const index::OverlayIndex* mirror = service.mirror_index())
    cubes.push_back(mirror);

  // Load-balance invariant input: scan counts per serving peer, straight
  // from the protocol trace (replica holders show up as servers here —
  // that is the point).
  std::map<sim::EndpointId, std::uint64_t> scan_loads;
  if (cfg.max_scan_skew > 0.0)
    service.primary_index().set_trace(
        [&scan_loads](const index::OverlayIndex::Trace& t) {
          if (std::string_view(t.point) == "scan") ++scan_loads[t.b];
        });

  constexpr sim::EndpointId kHome = 1;  // publisher/searcher; never fails

  // The maintenance plane, on Chord. Under continuous churn it detects
  // and heals every kill while serving continues; under the hot-spot
  // workload its always-on replication ticker promotes, demotes and
  // resyncs hot cells while the workload races it (kills there are
  // repaired synchronously, with the plane parked).
  std::unique_ptr<maint::MaintenancePlane> plane;
  const bool heal = cfg.continuous_churn ? cfg.self_healing
                                         : cfg.hot_spot && cfg.hot_replication;
  if (chord != nullptr && heal) {
    maint::MaintenancePlane::Config pc;
    if (cfg.hot_spot) {
      pc.replication_interval = 40;
      pc.replica_entries_per_tick = 512;
    }
    plane = std::make_unique<maint::MaintenancePlane>(pc, *chord, service);
    if (tracer != nullptr) plane->set_tracer(tracer);
    rt.post_sync([&] { plane->start(); });
    // Real-runtime composition: connection-death reports from the socket
    // layer feed the failure detector's fast path (the observer already
    // runs on the dispatch strand, the detector's serialization domain).
    if (sock != nullptr) {
      maint::MaintenancePlane* p = plane.get();
      sock->set_peer_down_observer(
          [p](sim::EndpointId ep) { p->detector().note_transport_down(ep); });
    }
  }

  // Every op initiation below is strand-marshaled through rt.post_sync —
  // a direct call on the simulator, the thread-safety boundary on sockets.
  Ops ops;
  ops.clock = rt.clock;
  ops.net = simnet;
  ops.rt = &rt;
  ops.plane = plane.get();
  // Each cube may overshoot under kLevelParallel, but the mirrored merge
  // truncates to the threshold.
  ops.overshoot_ok =
      cubes.size() == 1 && cfg.strategy == SearchStrategy::kLevelParallel;
  ops.publish = [&](ObjectId id, const KeywordSet& k,
                    std::function<void()> done) {
    rt.post_sync([&] {
      service.publish(
          kHome, id, k,
          [done](const index::OverlayIndex::PublishResult&) { done(); });
    });
  };
  ops.withdraw = [&](ObjectId id, const KeywordSet& k,
                     std::function<void()> done) {
    rt.post_sync([&] {
      service.withdraw(
          kHome, id, k,
          [done](const index::OverlayIndex::WithdrawResult&) { done(); });
    });
  };
  ops.pin = [&](const KeywordSet& q,
                std::function<void(const SearchResult&)> cb) {
    rt.post_sync([&] { service.pin(kHome, q, raw(std::move(cb))); });
  };
  ops.search = [&](const KeywordSet& q, std::size_t t,
                   std::function<void(const SearchResult&)> cb) {
    std::uint64_t ticket = 0;
    rt.post_sync([&] {
      ticket = service.search(kHome, q, {.limit = t, .strategy = cfg.strategy},
                              raw(std::move(cb)));
    });
    return ticket;
  };
  ops.cancel = [&](std::uint64_t ticket) {
    bool cancelled = false;
    rt.post_sync([&] { cancelled = service.cancel_search(ticket); });
    return cancelled;
  };
  // Browsing pages the primary cube only, which mid-churn can lack
  // entries the mirror still serves; the mirrored deployment skips it.
  if (cubes.size() == 1) {
    ops.browse = [&](const KeywordSet& q, std::size_t page,
                     std::function<void(const std::vector<Hit>&, bool)> cb) {
      rt.post_sync([&] {
        const std::uint64_t sess = service.open_browse(kHome, q);
        auto all = std::make_shared<std::vector<Hit>>();
        auto pages = std::make_shared<std::size_t>(0);
        auto step = std::make_shared<std::function<void()>>();
        *step = [&service, sess, page, all, pages, cb, step] {
          if (++*pages > 100000) {
            service.close_browse(sess);
            cb(*all, false);
            *step = nullptr;
            return;
          }
          service.browse_next(
              sess, page,
              [&service, sess, all, cb,
               step](const index::KeywordSearchService::Answer& a) {
                all->insert(all->end(), a.hits.begin(), a.hits.end());
                if (a.stats.complete) {
                  service.close_browse(sess);
                  cb(*all, true);
                  *step = nullptr;  // break the self-reference cycle
                } else {
                  (*step)();
                }
              });
        };
        (*step)();
      });
    };
  }
  ops.in_flight = [&] {
    std::size_t n = 0;
    for (const index::OverlayIndex* c : cubes) n += c->in_flight_requests();
    return n;
  };
  ops.check_occupancy = [&](const std::map<ObjectId, KeywordSet>& live)
      -> std::optional<std::string> {
    const char* labels[] = {cubes.size() == 1 ? "overlay" : "primary",
                            "mirror"};
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const std::size_t have = sum_loads(cubes[i]->loads_by_cube_node());
      if (have != live.size())
        return std::string(labels[i]) + " index holds " +
               std::to_string(have) + " entries, oracle has " +
               std::to_string(live.size());
    }
    return std::nullopt;
  };
  if (chord != nullptr) {
    ops.fail_peer = [&, chord](std::uint64_t ordinal,
                               const std::map<ObjectId, KeywordSet>& live) {
      // Kill, survivor scan and stabilization touch protocol state, so each
      // burst runs strand-serialized; the drains between them must run from
      // the engine thread (on sockets the strand cannot wait for itself).
      std::vector<ObjectId> lost;
      bool killed = false;
      rt.post_sync([&] {
        std::vector<sim::EndpointId> candidates;
        for (sim::EndpointId ep = 2; ep <= cfg.peers; ++ep)
          if (chord->is_live(ep)) candidates.push_back(ep);
        if (candidates.size() < (cfg.continuous_churn ? 6u : 4u)) return;
        const sim::EndpointId victim =
            candidates[ordinal % candidates.size()];
        if (plane != nullptr) {
          plane->note_true_failure(victim);
          // The repair below is synchronous: park the plane around it so
          // its detector never double-heals.
          if (!cfg.continuous_churn) plane->stop();
        }
        chord->fail(victim);
        killed = true;
        // An object is gone for good only when no live peer holds an entry
        // for it in any cube, owner table or hot-cell replica (back-to-back
        // kills can take the primary and mirror copies with different
        // victims before anything has healed).
        std::set<ObjectId> survivors;
        const auto collect = [&](cube::CubeId, const KeywordSet&, ObjectId id,
                                 sim::EndpointId ep) {
          if (chord->is_live(ep)) survivors.insert(id);
        };
        for (const index::OverlayIndex* c : cubes) {
          c->for_each_entry(collect);
          c->for_each_replica_entry(collect);
        }
        for (const auto& [id, k] : live)
          if (!survivors.contains(id)) lost.push_back(id);
        if (!cfg.continuous_churn)
          for (int i = 0; i < maint::MaintenancePlane::kStabilizeRoundsPerDeath;
               ++i)
            chord->stabilize_all();
      });
      // Continuous churn only kills: detection and healing are the plane's
      // job (or deliberately nobody's, in the self-healing-off control).
      if (!killed || cfg.continuous_churn) return lost;
      rt.drain_full();
      rt.post_sync([&] {
        service.repair();
        // Restores owner tables from surviving hot-cell replica copies.
        service.replication_step(std::numeric_limits<std::size_t>::max());
      });
      rt.drain_full();
      if (plane != nullptr) rt.post_sync([&] { plane->start(); });
      return lost;
    };
  }
  execute(cfg, ops, rep, tracer);
  rt.fence();
  rt.post_sync([&] {
    if (plane != nullptr) plane->stop();  // idempotent; covers early exits
  });
  // The observer closes over the plane, which is destroyed before the
  // transport: detach it before teardown.
  if (sock != nullptr) sock->set_peer_down_observer(nullptr);

  // Load-balance invariant: the busiest peer's scan count vs the mean over
  // all live peers (idle peers count — that is what the skew is about).
  if (cfg.max_scan_skew > 0.0 && rep.ok()) {
    std::uint64_t total = 0;
    std::uint64_t max_load = 0;
    for (const auto& [ep, n] : scan_loads) {
      total += n;
      max_load = std::max(max_load, n);
    }
    const std::size_t live = overlay->live_ids().size();
    if (total > 0 && live > 0) {
      const double mean =
          static_cast<double>(total) / static_cast<double>(live);
      const double skew = static_cast<double>(max_load) / mean;
      if (skew > cfg.max_scan_skew) {
        std::ostringstream detail;
        detail << "max/mean scans per peer " << skew << " exceeds "
               << cfg.max_scan_skew << " (max=" << max_load
               << " total=" << total << " live_peers=" << live << ")";
        rep.violations.push_back({"load_balance", detail.str()});
      }
    }
  }
  rep.faults_applied = wire.inj->applied();
}

}  // namespace

const char* to_string(Deployment d) {
  switch (d) {
    case Deployment::kDirect: return "direct";
    case Deployment::kChord: return "chord";
    case Deployment::kPastry: return "pastry";
    case Deployment::kHyperCup: return "hypercup";
    case Deployment::kMirrored: return "mirrored";
    case Deployment::kDecomposed: return "decomposed";
  }
  return "?";
}

const char* to_string(index::SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kTopDownSequential: return "top-down";
    case SearchStrategy::kBottomUpSequential: return "bottom-up";
    case SearchStrategy::kLevelParallel: return "level-parallel";
  }
  return "?";
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kTcp: return "tcp";
    case Backend::kUdp: return "udp";
  }
  return "?";
}

bool networked(Deployment d) {
  switch (d) {
    case Deployment::kDirect:
    case Deployment::kDecomposed:
      return false;
    case Deployment::kChord:
    case Deployment::kPastry:
    case Deployment::kHyperCup:
    case Deployment::kMirrored:
      return true;
  }
  return false;
}

ScenarioConfig ScenarioConfig::from_seed(std::uint64_t seed, Deployment d,
                                         index::SearchStrategy s) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.deployment = d;
  cfg.strategy = s;
  Rng rng(mix64(seed ^ kConfigSalt));
  cfg.r = 4 + static_cast<int>(rng.next_below(2));  // 4..5
  cfg.peers = 12 + rng.next_below(13);              // 12..24
  cfg.objects = 30 + rng.next_below(41);            // 30..70
  cfg.vocab = 10 + rng.next_below(9);               // 10..18
  cfg.rounds = 3 + rng.next_below(3);               // 3..5
  cfg.searches_per_round = 4 + rng.next_below(5);
  cfg.mutations_per_round = 3 + rng.next_below(4);
  cfg.cache_capacity = rng.next_bool(0.5) ? 8 + rng.next_below(25) : 0;
  cfg.faults.rounds = cfg.rounds;
  switch (d) {
    case Deployment::kDirect:
    case Deployment::kDecomposed:
      // In-process: no wire, no faults. The scenario still tortures the
      // workload interleavings, caches, and occupancy accounting.
      cfg.faults.allow_drops = false;
      cfg.faults.allow_dups = false;
      cfg.faults.allow_delays = false;
      cfg.faults.max_events = 0;
      break;
    case Deployment::kHyperCup:
      // Tree forwarding has no retransmission layer: delays only.
      cfg.faults.allow_drops = false;
      cfg.faults.allow_dups = false;
      cfg.faults.max_events = 16;
      cfg.faults.max_delay = 200;
      cfg.faults.horizon = 1200;
      cfg.cache_capacity = 0;  // no query cache in this deployment
      break;
    case Deployment::kChord:
      cfg.faults.max_delay = 200;
      cfg.faults.horizon = 1200;
      cfg.churn = rng.next_bool(0.4);
      cfg.faults.peer_failures = cfg.churn ? 1 : 0;
      break;
    case Deployment::kPastry:
      // Prefix routing needs ~1 hop per route, so a whole run generates far
      // fewer wire messages than Chord; keep targets inside the traffic.
      cfg.faults.max_delay = 200;
      cfg.faults.horizon = 400;
      break;
    case Deployment::kMirrored:
      cfg.faults.max_delay = 200;
      cfg.faults.horizon = 1200;
      break;
  }
  return cfg;
}

ScenarioConfig ScenarioConfig::hot_spot_preset(std::uint64_t seed) {
  ScenarioConfig cfg = from_seed(seed, Deployment::kChord,
                                 index::SearchStrategy::kTopDownSequential);
  cfg.hot_spot = true;
  cfg.hot_replication = true;
  // Measured over seeds 1-8: replication-off runs land at 3.6-8.0,
  // replication-on runs at 1.5-3.0. The bound sits between the two bands.
  cfg.max_scan_skew = 4.0;
  // The query cache would absorb the recurring queries the workload relies
  // on to heat cells; the skew measurement wants every scan on the wire.
  cfg.cache_capacity = 0;
  cfg.peers = std::max<std::size_t>(cfg.peers, 16);
  // Enough post-promotion traffic that the spread (not the warm-up before
  // the hot threshold trips) dominates the per-peer scan totals.
  cfg.rounds = std::max<std::size_t>(cfg.rounds, 6);
  cfg.searches_per_round = std::max<std::size_t>(cfg.searches_per_round, 24);
  cfg.churn = true;
  cfg.faults.rounds = cfg.rounds;
  cfg.faults.peer_failures = 1 + seed % 2;
  // Lossless on purpose: the owner->replica root handoff is a single
  // unguarded hop (see hot_spot_preset doc). Delays stay in play.
  cfg.faults.allow_drops = false;
  cfg.faults.allow_dups = false;
  return cfg;
}

ScenarioConfig ScenarioConfig::churn_preset(std::uint64_t seed) {
  ScenarioConfig cfg = from_seed(seed, Deployment::kMirrored,
                                 index::SearchStrategy::kTopDownSequential);
  cfg.churn = true;
  cfg.continuous_churn = true;
  cfg.self_healing = true;
  cfg.peers = std::max<std::size_t>(cfg.peers, 16);
  cfg.rounds = std::max<std::size_t>(cfg.rounds, 4);
  cfg.faults.rounds = cfg.rounds;
  cfg.faults.peer_failures = 3;
  return cfg;
}

std::string ScenarioConfig::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed << " deployment=" << torture::to_string(deployment)
      << " strategy=" << torture::to_string(strategy) << " r=" << r
      << " peers=" << peers << " objects=" << objects
      << " rounds=" << rounds << " cache=" << cache_capacity
      << (churn ? " churn" : "");
  if (backend != Backend::kSim)
    out << " backend=" << torture::to_string(backend);
  if (!retransmission) out << " no-retransmission";
  if (continuous_churn)
    out << " continuous-churn"
        << (self_healing ? " self-healing" : " no-self-healing");
  if (hot_spot) {
    out << " hot-spot"
        << (hot_replication ? " hot-replication" : " no-hot-replication");
    if (max_scan_skew > 0.0) out << " max-skew=" << max_scan_skew;
  }
  return out.str();
}

std::string ScenarioReport::to_string() const {
  std::ostringstream out;
  out << config.to_string() << "\n";
  out << "searches=" << searches << " mutations=" << mutations
      << " cancels=" << cancels << " faults_applied=" << faults_applied
      << "\n";
  out << "fault plan:\n" << plan.to_string();
  if (violations.empty()) {
    out << "OK\n";
  } else {
    for (const Violation& v : violations)
      out << "VIOLATION [" << v.invariant << "] " << v.detail << "\n";
  }
  return out.str();
}

ScenarioReport ScenarioRunner::run(const ScenarioConfig& cfg) {
  return run(cfg, FaultPlan::from_seed(cfg.seed, cfg.faults));
}

ScenarioReport ScenarioRunner::run(const ScenarioConfig& cfg,
                                   const FaultPlan& plan) {
  ScenarioReport rep;
  rep.config = cfg;
  rep.plan = plan;
  switch (cfg.deployment) {
    case Deployment::kDirect:
      run_direct(cfg, rep, tracer_);
      break;
    case Deployment::kDecomposed:
      run_decomposed(cfg, rep, tracer_);
      break;
    case Deployment::kHyperCup:
      run_hypercup(cfg, plan, rep, tracer_);
      break;
    case Deployment::kChord:
    case Deployment::kPastry:
    case Deployment::kMirrored:
      run_service(cfg, plan, rep, tracer_);
      break;
  }
  return rep;
}

}  // namespace hkws::torture
