#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/ledger.hpp"

namespace hkws::sim {

LogNormalLatency::LogNormalLatency(double median_ticks, double sigma, Time cap)
    : median_(median_ticks), sigma_(sigma), cap_(cap) {}

Time LogNormalLatency::latency(EndpointId, EndpointId, Rng& rng) {
  // Box-Muller; one variate per call keeps the stream draw-count stable.
  const double u1 = std::max(rng.next_double(), 1e-12);
  const double u2 = rng.next_double();
  const double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  double ticks = median_ * std::exp(sigma_ * normal);
  if (cap_ != 0) ticks = std::min(ticks, static_cast<double>(cap_));
  return static_cast<Time>(std::llround(std::max(ticks, 1.0)));
}

Network::Network(EventQueue& clock, std::unique_ptr<LatencyModel> latency,
                 std::uint64_t seed)
    : clock_(clock),
      latency_(latency ? std::move(latency)
                       : std::make_unique<FixedLatency>(1)),
      rng_(seed) {}

void Network::register_endpoint(EndpointId id) { endpoints_[id] = true; }

void Network::unregister_endpoint(EndpointId id) { endpoints_.erase(id); }

bool Network::is_registered(EndpointId id) const {
  return endpoints_.contains(id);
}

void Network::set_drop_model(std::unique_ptr<DropModel> model) {
  drop_ = std::move(model);
}

void Network::set_fault_model(std::unique_ptr<FaultModel> model) {
  fault_ = std::move(model);
}

void Network::deliver_after(Time delay, Handler deliver) {
  clock_.schedule_in(delay, [this, deliver = std::move(deliver)] {
    net::ledger::delivered(metrics_);
    deliver();
  });
}

void Network::send(EndpointId from, EndpointId to, std::string kind,
                   std::size_t payload_bytes, Handler deliver) {
  if (from == to) {
    // Local call: no network traffic, but preserve async semantics so
    // protocol code behaves identically for local and remote destinations.
    net::ledger::local(metrics_);
    clock_.schedule_in(0, std::move(deliver));
    return;
  }
  if (!endpoints_.contains(to)) {
    net::ledger::unregistered(metrics_, kind);
    return;
  }
  net::ledger::sent(metrics_, kind, payload_bytes);
  const Time now = clock_.now();
  const auto observe = [&](bool lost, Time deliver_at) {
    if (observer_)
      observer_(kind, SendRecord{now, from, to, payload_bytes, lost,
                                 lost ? now : deliver_at});
  };
  // The fault model numbers and inspects only what the drop model kept.
  const bool dropped = drop_ != nullptr && drop_->drop(from, to, kind, rng_);
  FaultActions fault;
  if (!dropped && fault_ != nullptr)
    fault = fault_->inspect(from, to, kind, wire_seq_, rng_);
  if (!dropped) ++wire_seq_;
  if (dropped || fault.drop) {
    net::ledger::lost(metrics_, kind, net::ledger::Cause::kFault);
    observe(true, 0);
    return;
  }
  const Time base = latency_->latency(from, to, rng_);
  if (fault.extra_delay != 0) net::ledger::delayed(metrics_);
  observe(false, now + base + fault.extra_delay);
  // The closure moves into its one delivery; only duplicates copy it.
  deliver_after(base + fault.extra_delay,
                fault.duplicates == 0 ? std::move(deliver) : Handler(deliver));
  for (std::uint32_t i = 0; i < fault.duplicates; ++i) {
    // Each duplicate is a real wire message with its own latency draw, so
    // copies overtake each other (the interesting reordering case).
    net::ledger::sent(metrics_, kind, payload_bytes);
    net::ledger::dup(metrics_);
    const Time dup_latency = latency_->latency(from, to, rng_);
    observe(false, now + dup_latency);
    deliver_after(dup_latency, deliver);
  }
}

}  // namespace hkws::sim
