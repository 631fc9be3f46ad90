// Simulated point-to-point message network. Endpoints register handlers;
// sends are delivered as events after a pluggable latency, and every send is
// accounted in Metrics by message kind. Both the DHT overlay and the
// hypercube index protocol run entirely on top of this class — a "message"
// here corresponds to one physical network message in the paper's cost model.
//
// Two pluggable models shape the fabric:
//  * LatencyModel — one-way delay per (from, to) pair. FixedLatency and
//    UniformLatency cover the paper's regime; LogNormalLatency adds the
//    heavy-tailed WAN delays that make p99 behaviour under load meaningful.
//  * DropModel — per-message loss. A lossless Network is the default;
//    installing a drop model (or constructing a LossyNetwork) makes sends
//    vanish with a seeded probability, which is what exercises the serving
//    engine's timeout/retransmission machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace hkws::sim {

/// Identifies a process/endpoint in the simulation (a physical peer).
using EndpointId = net::EndpointId;

/// Pluggable one-way latency model.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Time latency(EndpointId from, EndpointId to, Rng& rng) = 0;
};

/// Constant latency for every pair.
class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(Time ticks) : ticks_(ticks) {}
  Time latency(EndpointId, EndpointId, Rng&) override { return ticks_; }

 private:
  Time ticks_;
};

/// Uniform random latency in [lo, hi] (inclusive), deterministic per seed.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(Time lo, Time hi) : lo_(lo), hi_(hi) {}
  Time latency(EndpointId, EndpointId, Rng& rng) override {
    return lo_ + rng.next_below(hi_ - lo_ + 1);
  }

 private:
  Time lo_, hi_;
};

/// Heavy-tailed latency: ticks = median * exp(sigma * N(0,1)), i.e.
/// log-normal with the given median and log-space spread `sigma`. Results
/// are clamped to >= 1 tick and, if `cap` > 0, to <= cap (a crude stand-in
/// for transport-level retransmission bounding the delay of a surviving
/// packet). sigma ~ 0.4-0.6 reproduces typical WAN RTT tails.
class LogNormalLatency final : public LatencyModel {
 public:
  explicit LogNormalLatency(double median_ticks, double sigma = 0.5,
                            Time cap = 0);
  Time latency(EndpointId, EndpointId, Rng& rng) override;

 private:
  double median_;
  double sigma_;
  Time cap_;
};

/// Pluggable per-message loss model. Local sends (from == to) are exempt.
class DropModel {
 public:
  virtual ~DropModel() = default;
  virtual bool drop(EndpointId from, EndpointId to, const std::string& kind,
                    Rng& rng) = 0;
};

/// Drops every message independently with probability `p`.
class BernoulliDrop final : public DropModel {
 public:
  explicit BernoulliDrop(double p) : p_(p) {}
  bool drop(EndpointId, EndpointId, const std::string&, Rng& rng) override {
    return rng.next_bool(p_);
  }

 private:
  double p_;
};

/// What a FaultModel decided to do to one wire message. Defaults = deliver
/// untouched.
struct FaultActions {
  bool drop = false;             ///< lose the message entirely
  std::uint32_t duplicates = 0;  ///< extra copies, each delivered separately
  Time extra_delay = 0;          ///< added one-way latency (reorders traffic)
};

/// Pluggable deterministic fault scheduler, richer than DropModel: besides
/// loss it can duplicate a message or spike its delay. `seq` is the 0-based
/// sequence number of wire messages (local sends and sends to unregistered
/// endpoints are not numbered), so a seeded schedule of faults replays
/// bit-identically. Consulted after the DropModel (a message the drop model
/// already lost is never inspected).
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  virtual FaultActions inspect(EndpointId from, EndpointId to,
                               const std::string& kind, std::uint64_t seq,
                               Rng& rng) = 0;
};

/// The message-passing fabric — the simulator's implementation of the
/// net::Transport interface (the "SimTransport"; see src/net/transport.hpp
/// and src/net/sim_transport.hpp). Protocol layers talk to the interface;
/// simulation drivers additionally reach the event queue (clock()) and the
/// latency/drop/fault models through this concrete class.
class Network : public net::Transport {
 public:
  /// Delivery action run at the destination when a message arrives.
  using Handler = net::Transport::Handler;

  /// @param clock    event queue driving the simulation (not owned)
  /// @param latency  latency model (owned); nullptr = FixedLatency(1)
  /// @param seed     seed for latency/loss randomness
  explicit Network(EventQueue& clock,
                   std::unique_ptr<LatencyModel> latency = nullptr,
                   std::uint64_t seed = 1);

  /// Declares an endpoint reachable. Sends to unregistered endpoints are
  /// silently discarded (models absent peers).
  void register_endpoint(EndpointId id) override;
  void unregister_endpoint(EndpointId id) override;
  bool is_registered(EndpointId id) const override;

  /// Installs (or, with nullptr, removes) a message-loss model. A lost
  /// send is recorded sent (it was put on the wire) and lost to a fault,
  /// never delivered.
  void set_drop_model(std::unique_ptr<DropModel> model);
  bool lossy() const noexcept { return drop_ != nullptr; }

  /// Installs (or, with nullptr, removes) a fault-injection model. Injected
  /// drops are lost like drop-model losses; each duplicate is a full wire
  /// message plus a dup; delay spikes are recorded delayed.
  void set_fault_model(std::unique_ptr<FaultModel> model);

  /// One wire message, reported to the send observer after the drop/fault
  /// models have decided its fate. Duplicated messages report once per wire
  /// copy; local sends and sends to unregistered endpoints do not report.
  using SendRecord = net::SendRecord;
  using SendObserver = net::Transport::SendObserver;

  /// Installs (or, with nullptr, removes) a per-send observer — the tracing
  /// hook (see src/obs). Invoked synchronously from send(); keep it cheap.
  /// The observer must outlive the network or be removed first.
  void set_send_observer(SendObserver fn) override { observer_ = std::move(fn); }

  /// Sends one message. `kind` labels the protocol message type for
  /// accounting ("dht.lookup", "kws.t_query", ...). `deliver` runs at the
  /// destination after the modeled latency; `payload_bytes` feeds byte
  /// accounting only. Local sends (from == to) are free: delivered
  /// immediately-after (same tick) and not counted as network messages.
  void send(EndpointId from, EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override;

  // --- Transport time/timer hooks (delegate to the event queue) -----------

  Time now() const override { return clock_.now(); }
  void schedule_in(Time delay, Handler fn) override {
    clock_.schedule_in(delay, std::move(fn));
  }
  TimerId set_timer(Time delay, Handler fn) override {
    return clock_.set_timer(delay, std::move(fn));
  }
  bool cancel_timer(TimerId id) override { return clock_.cancel_timer(id); }

  EventQueue& clock() noexcept { return clock_; }
  Metrics& metrics() noexcept override { return metrics_; }
  const Metrics& metrics() const noexcept override { return metrics_; }

  /// Total messages actually put on the wire (excludes local sends).
  std::uint64_t messages_sent() const { return metrics_.counter("net.messages"); }

  /// Total messages lost in flight (drop model + injected faults).
  std::uint64_t messages_lost() const { return metrics_.counter("net.lost"); }

  /// Total messages handed to a destination handler. After the event queue
  /// drains, net::ledger::identity_error(metrics()) is empty.
  std::uint64_t messages_delivered() const {
    return metrics_.counter("net.delivered");
  }

 private:
  /// Schedules one delivery of `deliver` after `delay`, recording it
  /// delivered at arrival time. The closure moves into the queue's slab
  /// slot (see event_queue.hpp) and out again at arrival; a message costs
  /// no closure copy unless a fault model duplicates it.
  void deliver_after(Time delay, Handler deliver);

  EventQueue& clock_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<DropModel> drop_;
  std::unique_ptr<FaultModel> fault_;
  SendObserver observer_;
  Rng rng_;
  Metrics metrics_;
  std::uint64_t wire_seq_ = 0;  ///< next wire-message sequence number
  std::unordered_map<EndpointId, bool> endpoints_;
};

/// Convenience: a Network born with a BernoulliDrop(loss_p) installed.
class LossyNetwork final : public Network {
 public:
  LossyNetwork(EventQueue& clock, double loss_p,
               std::unique_ptr<LatencyModel> latency = nullptr,
               std::uint64_t seed = 1)
      : Network(clock, std::move(latency), seed) {
    set_drop_model(std::make_unique<BernoulliDrop>(loss_p));
  }
};

}  // namespace hkws::sim
