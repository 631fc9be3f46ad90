// Seed-driven protocol torture scenarios with differential oracles.
//
// One scenario = one deployment x one search strategy x one seed. The
// runner replays a randomized workload (publish / withdraw / pin /
// superset / cancel / cumulative-browse interleavings) against the chosen
// deployment while a FaultPlan injects message faults and peer failures,
// and checks a battery of invariants against a lossless in-memory oracle:
//
//  * oracle          — exhaustive searches return exactly the objects whose
//                      keyword sets contain the query, hit payloads carry
//                      the true keyword sets, thresholded searches return at
//                      least min(t, |O_K|) true matches, never a false one
//  * ranking         — ordering hits by extra-keyword count is monotone and
//                      preserves the hit multiset
//  * timers          — the instant the last outstanding operation completes,
//                      no protocol timer is live and no request state leaks
//                      (every terminal transition cancelled its timers)
//  * cancel          — a successfully cancelled search never invokes its
//                      callback
//  * hang            — the event queue drains while operations are still
//                      outstanding (a lost step nobody retransmitted)
//  * conservation    — wire accounting closes: messages == delivered + lost
//  * occupancy       — index-table occupancy equals the oracle's live set
//
// The workload op stream is generated from its own Rng stream in issuance
// order, so it is identical under every fault schedule — which is what
// makes greedy schedule shrinking (shrink.hpp) meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "index/search_types.hpp"
#include "torture/fault_plan.hpp"

namespace hkws::obs {
class Tracer;
}

namespace hkws::torture {

enum class Deployment : std::uint8_t {
  kDirect,      ///< LogicalIndex, in-process (the serial reference itself)
  kChord,       ///< KeywordSearchService over Chord, loss-tolerant
  kPastry,      ///< KeywordSearchService over Pastry, loss-tolerant
  kHyperCup,    ///< HyperCupIndex tree forwarding (delay faults only)
  kMirrored,    ///< KeywordSearchService with the mirror cube, over Chord
  kDecomposed,  ///< DecomposedIndex (grouped cubes), in-process
};

/// Execution substrate the scenario runs on. kSim is the deterministic
/// discrete-event simulator (sim::Network); kTcp and kUdp are the real
/// runtime: a net::SocketTransport over loopback sockets — TCP streams or
/// UDP datagrams (one envelope frame per datagram, where a frame can
/// genuinely vanish on the wire) — wrapped in net::FaultTransport so the
/// same seeded FaultPlan (drops, dups, delays, partitions) applies below
/// the protocol. The invariant battery is identical on all three; on the
/// socket backends the fault schedule still derives from the seed but
/// message *order* is wall-clock real, so the invariants are exercised
/// against genuine concurrency rather than replayed event order. Supported
/// for the chord, pastry and mirrored deployments; the others ignore the
/// field and run on the simulator (direct/decomposed have no wire at all,
/// hypercup's delay-only envelope adds nothing over the sim run).
enum class Backend : std::uint8_t {
  kSim,
  kTcp,
  kUdp,
};

const char* to_string(Deployment d);
const char* to_string(index::SearchStrategy s);
const char* to_string(Backend b);

/// True if the deployment exchanges simulated network messages (and can
/// therefore be fault-injected at all).
bool networked(Deployment d);

struct ScenarioConfig {
  std::uint64_t seed = 1;
  Deployment deployment = Deployment::kChord;
  index::SearchStrategy strategy = index::SearchStrategy::kTopDownSequential;
  /// Sized from the seed by from_seed():
  std::size_t peers = 16;    ///< DHT deployments
  int r = 5;                 ///< hypercube dimension
  std::size_t objects = 40;  ///< initial corpus size
  std::size_t vocab = 14;    ///< keyword vocabulary size
  std::size_t rounds = 4;    ///< mutate+search rounds
  std::size_t searches_per_round = 6;
  std::size_t mutations_per_round = 4;
  std::size_t cache_capacity = 0;  ///< per-node query-cache records
  bool churn = false;              ///< honor kFailPeer events (Chord only)
  /// Continuous churn: kFailPeer events are kill-only — no oracle-driven
  /// instant repair. A MaintenancePlane (heartbeat failure detection +
  /// budgeted background repair) runs on the same event queue and must
  /// detect and heal each failure while serving continues; mid-churn
  /// search checks are relaxed to soundness (no false positives, no
  /// duplicates, correct payloads), and strict completeness is re-checked
  /// by post-convergence verification searches. Mirrored deployment only.
  bool continuous_churn = false;
  /// With continuous_churn: run the maintenance plane (true) or leave the
  /// failures unrepaired (false — the control that shows the invariants
  /// break without the plane).
  bool self_healing = true;
  /// Convergence invariant: after the last fault, the plane must report
  /// converged() within this many 100-tick repair windows.
  std::size_t convergence_budget = 80;
  /// Hot-spot workload: the recurring-query share rises to 0.85, so a few
  /// keyword cells absorb most T_QUERY scans — the query-side load skew
  /// the hot-cell replication machinery exists to flatten (Chord only).
  bool hot_spot = false;
  /// With hot_spot: run popularity-aware hot-cell replication (true), or
  /// leave it off (false — the control that shows the load-balance
  /// invariant break without the feature).
  bool hot_replication = true;
  /// Load-balance invariant (0 = off): max per-peer scan count divided by
  /// the mean over all live peers must stay at or below this after the run.
  double max_scan_skew = 0.0;
  /// Execution substrate (see Backend). Only chord/pastry/mirrored honor
  /// the socket backends; the rest always run on the simulator.
  Backend backend = Backend::kSim;
  /// Overlay step retransmission (chord/pastry/mirrored). Off, a single
  /// dropped step message strands its search forever — which is precisely
  /// what the harness's hang invariant must catch. The meta-test that
  /// proves FaultTransport-injected loss over real sockets is *observable*
  /// runs with this off; every normal scenario keeps it on.
  bool retransmission = true;
  FaultPlanConfig faults;

  /// Fills the size knobs from the seed and adapts the fault envelope to
  /// the deployment (drops/dups only where the protocol tolerates them,
  /// churn only where the repair recipe exists).
  static ScenarioConfig from_seed(std::uint64_t seed, Deployment d,
                                  index::SearchStrategy s);

  /// Continuous-churn preset: mirrored deployment, several mid-run peer
  /// kills, self-healing enabled. The scenario passes only if the
  /// maintenance plane detects every failure and restores all invariants
  /// (occupancy, replication, search completeness, conservation) within
  /// the convergence budget.
  static ScenarioConfig churn_preset(std::uint64_t seed);

  /// Hot-spot preset: Chord deployment, zipf-like recurring-query skew,
  /// mid-run peer kills, hot-cell replication on, and the load-balance
  /// invariant armed. Lossless by construction: the owner->replica root
  /// handoff is a single unguarded hop, so drop/dup faults are excluded
  /// (delays stay). The replication-off control run must trip the
  /// load_balance invariant; the feature run must pass everything.
  static ScenarioConfig hot_spot_preset(std::uint64_t seed);

  std::string to_string() const;
};

struct Violation {
  std::string invariant;  ///< "oracle", "ranking", "timers", ...
  std::string detail;
};

struct ScenarioReport {
  ScenarioConfig config;
  FaultPlan plan;
  std::vector<Violation> violations;
  std::size_t searches = 0;
  std::size_t mutations = 0;
  std::size_t cancels = 0;
  std::uint64_t faults_applied = 0;
  /// Wire traffic of the whole run (the ledger's net.messages and
  /// net.lost); 0 for in-process deployments.
  std::uint64_t messages = 0;
  std::uint64_t lost = 0;

  bool ok() const noexcept { return violations.empty(); }
  /// Seed + config + fault schedule + violations, ready to paste into a
  /// bug report (and into `tools/torture --seed N` for replay).
  std::string to_string() const;
};

class ScenarioRunner {
 public:
  /// Runs one scenario under the plan derived from cfg.seed.
  ScenarioReport run(const ScenarioConfig& cfg);

  /// Runs one scenario under an explicit plan (schedule shrinking).
  ScenarioReport run(const ScenarioConfig& cfg, const FaultPlan& plan);

  /// Installs a span tracer (nullptr to remove; not owned, must outlive
  /// run()): each round becomes a "round" span on the global track with
  /// publish/withdraw/search/cancel instants inside, and networked
  /// deployments additionally trace every wire send. Timestamps are
  /// sim-time for networked deployments and 0 for in-process ones.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hkws::torture
