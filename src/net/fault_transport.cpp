#include "net/fault_transport.hpp"

#include <utility>

#include "net/ledger.hpp"

namespace hkws::net {

FaultTransport::FaultTransport(Transport& inner,
                               std::unique_ptr<sim::FaultModel> model,
                               std::uint64_t seed)
    : inner_(inner), model_(std::move(model)), rng_(seed) {}

void FaultTransport::arm() { armed_ = true; }

void FaultTransport::set_fault_model(std::unique_ptr<sim::FaultModel> model) {
  model_ = std::move(model);
}

std::uint64_t FaultTransport::wire_seq() const { return seq_; }

void FaultTransport::register_endpoint(EndpointId id) {
  inner_.register_endpoint(id);
}

void FaultTransport::unregister_endpoint(EndpointId id) {
  inner_.unregister_endpoint(id);
}

bool FaultTransport::is_registered(EndpointId id) const {
  return inner_.is_registered(id);
}

void FaultTransport::send(EndpointId from, EndpointId to, std::string kind,
                          std::size_t payload_bytes, Handler deliver) {
  // Local and unregistered-destination sends are not wire messages: pass
  // them straight down (the inner transport records their fate) without
  // numbering or inspection — mirroring the simulator, which numbers only
  // real wire traffic.
  if (from == to || !inner_.is_registered(to)) {
    inner_.send(from, to, std::move(kind), payload_bytes, std::move(deliver));
    return;
  }
  Transport* inner = &inner_;
  apply_faults(from, to, kind, payload_bytes,
               [inner, from, to, kind, payload_bytes,
                deliver = std::move(deliver)] {
                 inner->send(from, to, kind, payload_bytes, deliver);
               });
}

bool FaultTransport::set_peer_address(EndpointId id, const PeerAddr& addr) {
  return inner_.set_peer_address(id, addr);
}

bool FaultTransport::has_peer_address(EndpointId id) const {
  return inner_.has_peer_address(id);
}

void FaultTransport::set_payload_handler(PayloadHandler fn) {
  inner_.set_payload_handler(std::move(fn));
}

void FaultTransport::send_payload(EndpointId from, EndpointId to,
                                  MsgKind kind, const WireMessage& msg) {
  // Same pass-through rule as send(). A payload send is wire traffic when
  // its destination is deliverable — locally registered or owned by
  // another process.
  if (from == to ||
      (!inner_.is_registered(to) && !inner_.has_peer_address(to))) {
    inner_.send_payload(from, to, kind, msg);
    return;
  }
  // The byte cost is the encoded inner frame: what the wire carries.
  Transport* inner = &inner_;
  apply_faults(from, to, kind_name(kind), encode_frame(kind, msg).size(),
               [inner, from, to, kind, msg] {
                 inner->send_payload(from, to, kind, msg);
               });
}

void FaultTransport::apply_faults(EndpointId from, EndpointId to,
                                  const std::string& kind, std::size_t bytes,
                                  Handler forward) {
  sim::FaultActions fault;
  if (armed_) {
    if (model_ != nullptr) fault = model_->inspect(from, to, kind, seq_, rng_);
    ++seq_;
  }
  sim::Metrics& m = inner_.metrics();
  if (fault.drop) {
    // The inner transport never sees a dropped message, so the decorator
    // records its whole fate: sent (the protocol paid for it) and lost to
    // fault injection. The observer sees lost = true so traces stay
    // truthful.
    ledger::sent(m, kind, bytes);
    ledger::lost(m, kind, ledger::Cause::kFault);
    if (observer_) {
      const Time at = inner_.now();
      observer_(kind, SendRecord{at, from, to, bytes, true, at});
    }
    return;
  }

  // Each copy is a full inner send, which records its own fate.
  const std::uint32_t copies = 1 + fault.duplicates;
  if (fault.duplicates != 0) ledger::dup(m, fault.duplicates);
  if (fault.extra_delay != 0) ledger::delayed(m);
  auto send_copies = [forward = std::move(forward), copies] {
    for (std::uint32_t i = 0; i < copies; ++i) forward();
  };
  if (fault.extra_delay != 0) {
    // Defer through the inner transport's own scheduler so the delay is
    // tracked by its idle/drain accounting (the socket dispatch strand's
    // pending-event count; the sim event queue).
    inner_.schedule_in(fault.extra_delay, std::move(send_copies));
    return;
  }
  send_copies();
}

Time FaultTransport::now() const { return inner_.now(); }

void FaultTransport::schedule_in(Time delay, Handler fn) {
  inner_.schedule_in(delay, std::move(fn));
}

Transport::TimerId FaultTransport::set_timer(Time delay, Handler fn) {
  return inner_.set_timer(delay, std::move(fn));
}

bool FaultTransport::cancel_timer(TimerId id) {
  return inner_.cancel_timer(id);
}

sim::Metrics& FaultTransport::metrics() { return inner_.metrics(); }

const sim::Metrics& FaultTransport::metrics() const {
  return inner_.metrics();
}

void FaultTransport::set_send_observer(SendObserver fn) {
  observer_ = fn;
  inner_.set_send_observer(std::move(fn));
}

}  // namespace hkws::net
