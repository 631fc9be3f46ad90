// Heartbeat failure detector — the sensing half of the self-healing
// maintenance plane. Instead of the oracle-style detection the repair
// harnesses used so far (the test driver *tells* the index which peer
// died), the detector discovers deaths the way a deployed system must:
// periodic pings over the simulated wire, timeout-based suspicion, and a
// configurable number of consecutive missed acks before a death is
// confirmed and reported.
//
// Probing scheme: members are ordered by endpoint id into a logical ring;
// every round, each still-monitored member is pinged by its nearest
// believed-alive ring successor ("maint.ping"), which expects a
// "maint.ack" back within `timeout` ticks. A missed ack marks the target
// *suspected*; kConfirmations consecutive misses confirm the death and
// fire the callback exactly once. An ack at any point clears the
// suspicion, so transient message loss (both kinds are declared lossable
// to the torture fault injector) only delays detection, it cannot
// un-confirm a peer or kill a live one — confirmation here never touches
// the network fabric, it only triggers repair, which is idempotent.
//
// Timer discipline: every armed timer id is tracked and erased first
// thing in its callback, stop() cancels everything, and armed_timers()
// reports the live count — that is what lets the torture harness keep its
// no-dangling-timer invariant while the plane runs forever alongside the
// workload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "net/transport.hpp"
#include "sim/network.hpp"

namespace hkws::obs {
class WindowedMetrics;
}

namespace hkws::maint {

class FailureDetector {
 public:
  struct Config {
    sim::Time period = 40;   ///< ping round interval (ticks)
    sim::Time timeout = 30;  ///< ack wait per ping; must be < period
  };
  /// Consecutive missed acks before a death is confirmed.
  static constexpr int kConfirmations = 2;
  /// Wire size of a ping and of an ack.
  static constexpr std::size_t kPingBytes = 16;

  /// Invoked exactly once per confirmed death, from a timer event.
  using DeathCallback = std::function<void(sim::EndpointId)>;

  /// @param net       fabric the pings travel on (not owned)
  /// @param on_death  confirmed-death sink (the repair plane)
  FailureDetector(net::Transport& net, Config cfg, DeathCallback on_death);

  /// Begins monitoring `members` (typically every peer in the deployment)
  /// and arms the periodic ping round. Idempotent while running.
  void start(const std::vector<sim::EndpointId>& members);

  /// Cancels every armed timer and stops probing. In-flight ping/ack
  /// deliveries already in the event queue are ignored on arrival.
  void stop();

  bool running() const noexcept { return running_; }

  /// Oracle hook for metrics only: records when a peer truly failed so the
  /// confirmation can report detection latency ("maint.detect_latency").
  /// Never consulted by the detection logic itself.
  void note_true_failure(sim::EndpointId ep);

  /// Fast-path liveness signal from the transport: the wire to `ep`
  /// positively died (TcpTransport's peer-down observer). Confirms the
  /// death immediately — no heartbeat misses to wait out — cancelling any
  /// outstanding ack timer first. Counted "maint.transport_down". No-op if
  /// not running, `ep` is not a monitored member, or already confirmed.
  /// Must be invoked strand/event-loop-serialized like every other entry
  /// point (TcpTransport marshals its observer onto the dispatch strand).
  void note_transport_down(sim::EndpointId ep);

  /// Members with >= 1 consecutive missed ack, not yet confirmed dead.
  std::size_t suspected_count() const;
  /// Members confirmed dead so far.
  std::size_t confirmed_count() const noexcept { return confirmed_; }
  /// Timers currently armed (round timer + outstanding ack timeouts).
  std::size_t armed_timers() const noexcept {
    return ack_timers_.size() + (round_timer_ != 0 ? 1 : 0);
  }

  const Config& config() const noexcept { return cfg_; }

  /// Optional per-window observability sink (not owned, may be nullptr).
  void set_windows(obs::WindowedMetrics* windows) { windows_ = windows; }

 private:
  struct Member {
    int missed = 0;        ///< consecutive missed acks
    bool confirmed = false;
    net::Transport::TimerId ack_timer = 0;  ///< 0 = no ping outstanding
  };

  void round();
  void probe(sim::EndpointId target);
  void on_ack(std::uint64_t epoch, sim::EndpointId target);
  void on_ack_timeout(sim::EndpointId target);
  void confirm(sim::EndpointId target);
  /// Nearest believed-alive member after `target` in endpoint-id ring
  /// order; 0 if no other candidate remains.
  sim::EndpointId prober_for(sim::EndpointId target) const;

  net::Transport& net_;
  Config cfg_;
  DeathCallback on_death_;
  obs::WindowedMetrics* windows_ = nullptr;

  bool running_ = false;
  /// Bumped on stop(); stale in-flight deliveries compare and bail.
  std::uint64_t epoch_ = 0;
  std::map<sim::EndpointId, Member> members_;
  std::map<net::Transport::TimerId, sim::EndpointId> ack_timers_;
  net::Transport::TimerId round_timer_ = 0;
  std::size_t confirmed_ = 0;
  /// ep -> sim-time of the true failure (metrics oracle).
  std::map<sim::EndpointId, sim::Time> true_failures_;
};

}  // namespace hkws::maint
