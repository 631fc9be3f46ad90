// MaintenancePlane — the repair half of the self-healing maintenance
// plane. It is built from the two layers it maintains — the Chord ring and
// the KeywordSearchService on top of it — and couples the heartbeat
// FailureDetector to their repair machinery, replacing the all-at-once
// repair sweeps the harnesses used to run in zero simulated time with
// *incremental* background work on the ring's transport:
//
//   * confirmed death  ->  schedules a budget of ring stabilization rounds
//     (routing heal) and (re)activates the repair ticker
//   * repair tick      ->  runs a few stabilization rounds, then one
//     rate-limited KeywordSearchService::repair_step (at most
//     entries_per_tick index entries re-homed / mirror-resynced and
//     refs_per_tick replica copies pushed)
//   * idle ticks       ->  once the repair backlog stays empty the ticker
//     disarms itself; the next confirmed death re-arms it. A confirmed
//     member the ring still lists was confirmed falsely (its prober died,
//     or its ack was slow), and its real death later brings no fresh
//     confirmation, so the ticker stays armed, watching the ring without
//     running repair slices, until the ring drops every confirmed member:
//     the backlog that death leaves is always drained
//
// Serving continues throughout — that is the point: searches race repair,
// degrade via the index's failover path, and recover completeness once
// converged() reports the plane has drained its backlog.
//
// Accounting: ring stabilization pays for its lookup hops as
// ledger charges (net/ledger.hpp; the fate table is in
// docs/ROBUSTNESS.md), so they close the conservation identity on their
// own. All other plane traffic — pings, acks, replica pushes, mirror
// resync reindexes — consists of ordinary wire sends.
#pragma once

#include <cstdint>
#include <vector>

#include "maint/failure_detector.hpp"

namespace hkws::dht {
class ChordNetwork;
}

namespace hkws::index {
class KeywordSearchService;
}

namespace hkws::obs {
class Tracer;
class WindowedMetrics;
}  // namespace hkws::obs

namespace hkws::maint {

class MaintenancePlane {
 public:
  struct Config {
    FailureDetector::Config detector;
    std::size_t entries_per_tick = 8;  ///< index entries re-homed per slice
    std::size_t refs_per_tick = 8;     ///< replica copies pushed per slice
    /// Hot-cell replication cadence (0 = ticker off). Unlike the repair
    /// ticker — armed by confirmed deaths, disarmed when idle — the
    /// replication ticker runs for the plane's whole lifetime: popularity
    /// shifts without anyone dying.
    sim::Time replication_interval = 0;
    /// Index entries copied to hot-cell replicas per replication round.
    std::size_t replica_entries_per_tick = 64;
  };

  /// Ticks between repair slices.
  static constexpr sim::Time kRepairInterval = 25;
  /// Stabilization rounds run per repair slice.
  static constexpr int kStabilizeRoundsPerTick = 3;
  /// Stabilization rounds queued per death (Chord fixes one finger per
  /// node per round, so routing heal needs a batch of them).
  static constexpr int kStabilizeRoundsPerDeath = 30;

  /// Maintains `ring` and the `service` over it; both must outlive the
  /// plane. Heartbeats and repair traffic travel on the ring's transport.
  MaintenancePlane(Config cfg, dht::ChordNetwork& ring,
                   index::KeywordSearchService& service);

  /// Starts the failure detector over the ring's live members. The repair
  /// ticker stays dormant until the first confirmed death; the replication
  /// ticker (if configured) arms immediately.
  void start();

  /// Stops detector and ticker, cancelling every armed timer.
  void stop();

  bool running() const noexcept { return detector_.running(); }

  /// Metrics oracle passthrough: when the harness kills a peer it reports
  /// the truth here so detection latency can be measured.
  void note_true_failure(sim::EndpointId ep) {
    detector_.note_true_failure(ep);
  }

  /// True when no stabilization rounds are pending, the repair backlog is
  /// empty, and the detector holds no unresolved suspicion — i.e. every
  /// injected failure has been detected and fully repaired.
  bool converged() const;

  /// Total units of repair work (entries moved + copies pushed) so far.
  std::uint64_t repair_work_done() const noexcept { return work_done_; }

  /// Timers currently armed by the plane (detector's + the repair and
  /// replication tickers).
  std::size_t armed_timers() const noexcept {
    return detector_.armed_timers() + (repair_timer_ != 0 ? 1 : 0) +
           (replication_timer_ != 0 ? 1 : 0);
  }

  FailureDetector& detector() noexcept { return detector_; }
  const FailureDetector& detector() const noexcept { return detector_; }
  const Config& config() const noexcept { return cfg_; }

  /// Optional observability sinks (not owned, may be nullptr).
  void set_windows(obs::WindowedMetrics* windows);
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void on_death(sim::EndpointId ep);
  void tick();
  void arm_ticker();
  void replication_tick();
  void arm_replication_ticker();

  net::Transport& net_;
  Config cfg_;
  dht::ChordNetwork& ring_;
  index::KeywordSearchService& service_;
  FailureDetector detector_;
  obs::WindowedMetrics* windows_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  net::Transport::TimerId repair_timer_ = 0;
  net::Transport::TimerId replication_timer_ = 0;
  int pending_stabilize_ = 0;
  /// Confirmed members the ring still lists: false confirmations whose
  /// real death, if it comes, will not be confirmed again.
  std::vector<sim::EndpointId> confirmed_live_;
  int idle_ticks_ = 0;
  /// Idle slices (no work, empty backlog) before the ticker disarms.
  static constexpr int kIdleTicksToDisarm = 2;
  std::uint64_t work_done_ = 0;
  bool burst_open_ = false;  ///< a "repair.burst" tracer span is open
};

}  // namespace hkws::maint
