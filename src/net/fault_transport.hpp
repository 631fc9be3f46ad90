// FaultTransport: deterministic fault injection at the transport narrow
// waist, as a composable decorator over any net::Transport.
//
// The simulator injects faults inside sim::Network::send(); the real TCP
// backend has no such hook — its sockets only ever lose frames when a
// connection actually dies. FaultTransport closes that gap: it wraps an
// inner transport and consults a sim::FaultModel (in practice the torture
// harness's seeded FaultInjector) on every armed wire send, applying the
// same drop / duplicate / delay / partition semantics the simulator
// applies, with the same ledger fates (net/ledger.hpp):
//
//  * drop       — the message never reaches the inner transport. The
//                 decorator records it sent and lost to a fault, and reports
//                 it to the send observer with SendRecord.lost = true.
//  * duplicate  — N extra inner sends, each a full wire message on the
//                 inner backend, plus one dup per extra copy.
//  * delay      — the inner send is deferred via inner.schedule_in() and
//                 recorded delayed. On the socket backends the deferral
//                 rides the dispatch strand's timer queue, so wait_idle()
//                 still accounts for in-flight delayed messages.
//
// Injection sits *below* the protocol layers and *above* the codec: a
// dropped message is dropped whole (the inner transport never serializes
// it) and a duplicate is a complete independent frame. Partial-frame
// corruption is the codec corpus's job (tests/test_wire.cpp), not ours.
//
// Sequencing: faults target wire sequence numbers. The decorator numbers
// armed, non-local sends to registered endpoints 0,1,2,... — local sends
// and sends to unregistered endpoints pass through unnumbered and
// uninspected, exactly like the simulator. arm() starts the numbering: the
// torture harness builds the overlay first and arms afterwards, so seq 0
// is the first workload message on both backends.
//
// Threading: like all protocol code, the decorator is driven from the
// inner transport's single thread — the simulator's event loop, or a
// socket runtime's dispatch strand, where other threads post their work.
// Its own state (model, rng, seq counter) and the ledger records it writes
// straight into inner.metrics() therefore need no lock. Set it up (arm(),
// set_fault_model(), observers) before traffic starts.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/network.hpp"

namespace hkws::net {

class FaultTransport final : public Transport {
 public:
  /// @param inner  the transport actually moving messages (not owned)
  /// @param model  fault schedule consulted per armed wire send (owned);
  ///               nullptr = pass-through
  /// @param seed   seed for the Rng handed to the model's inspect()
  FaultTransport(Transport& inner, std::unique_ptr<sim::FaultModel> model,
                 std::uint64_t seed = 1);

  /// Starts fault injection. Before arm(), every send passes through
  /// uninspected and unnumbered (overlay construction traffic stays
  /// pristine, and seq 0 lands on the first post-arm message).
  void arm();

  /// Replaces the fault model (nullptr = pass-through). Keeps the wire
  /// sequence counter — swapping models mid-run continues the numbering.
  void set_fault_model(std::unique_ptr<sim::FaultModel> model);

  /// Armed wire sends inspected so far (== next relative sequence number).
  std::uint64_t wire_seq() const;

  // --- Transport interface (decorated) -------------------------------------

  void register_endpoint(EndpointId id) override;
  void unregister_endpoint(EndpointId id) override;
  bool is_registered(EndpointId id) const override;

  void send(EndpointId from, EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override;

  // Cross-process plumbing forwards to the inner backend; payload sends go
  // through the same armed inspection as closure sends.
  bool set_peer_address(EndpointId id, const PeerAddr& addr) override;
  bool has_peer_address(EndpointId id) const override;
  void set_payload_handler(PayloadHandler fn) override;
  void send_payload(EndpointId from, EndpointId to, MsgKind kind,
                    const WireMessage& msg) override;

  Time now() const override;
  void schedule_in(Time delay, Handler fn) override;
  TimerId set_timer(Time delay, Handler fn) override;
  bool cancel_timer(TimerId id) override;

  sim::Metrics& metrics() override;
  const sim::Metrics& metrics() const override;

  void set_send_observer(SendObserver fn) override;

 private:
  /// Numbers and inspects one armed wire message of `kind` and `bytes`,
  /// then records a drop, or runs `forward` (one inner send) once per
  /// surviving copy, now or after the injected delay.
  void apply_faults(EndpointId from, EndpointId to, const std::string& kind,
                    std::size_t bytes, Handler forward);

  Transport& inner_;
  std::unique_ptr<sim::FaultModel> model_;
  Rng rng_;
  std::uint64_t seq_ = 0;
  bool armed_ = false;
  SendObserver observer_;  ///< copy for drop records (inner never sees them)
};

}  // namespace hkws::net
