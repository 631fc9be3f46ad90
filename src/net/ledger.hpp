// The message ledger: the one place where a message's fate is written into
// a Metrics registry, so the net.* and msg.* counter names are defined here
// and nowhere else. Every transport and every cost-model charge records
// through it; the fate table is in docs/ROBUSTNESS.md.
//
// A wire message records sent() once and then exactly one of delivered()
// or lost(); a charge is its own fate; a cross-process message closes at
// the sender. Whenever no message is in flight, therefore:
//
//   net.messages == net.delivered + net.lost + net.charged  (conservation)
//   net.lost == net.dropped.fault + net.dropped.conn        (attribution)
//
// The per-message fates (sent, delivered, local, charged) write through
// Metrics counter slots: each counter, msg.<kind> included, is looked up
// once per registry and then bumped in place, with no string built. The
// rarer fates (lost, unregistered, ...) go through Metrics::count.
//
// No locking here: every registry has a single writer, the thread that
// owns its transport (the sim's event loop or a socket runtime's dispatch
// strand; see the threading rule in net/transport.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/metrics.hpp"

namespace hkws::net::ledger {

/// Why a wire message was lost.
enum class Cause {
  kFault,  ///< a drop or fault model discarded it (net.dropped.fault)
  kConn,   ///< the wire swallowed it (net.dropped.conn)
};

/// from == to: not a wire message. net.local
void local(sim::Metrics& m);

/// Destination not registered; never reaches the wire. net.dropped,
/// net.dropped.<kind>, net.dropped.unregistered
void unregistered(sim::Metrics& m, const std::string& kind);

/// Put on the wire. net.messages, net.bytes, msg.<kind>, and
/// net.wire_bytes when the backend moves a frame (`wire_bytes` != 0).
void sent(sim::Metrics& m, const std::string& kind, std::size_t bytes,
          std::size_t wire_bytes = 0);

/// Arrived at its destination. net.delivered
void delivered(sim::Metrics& m);

/// Lost on the wire. net.lost, net.lost.<kind>, and the cause counter.
void lost(sim::Metrics& m, const std::string& kind, Cause why);

/// One lookup hop the cost model pays for without moving a message.
/// net.messages, msg.<kind>, net.charged
void charged(sim::Metrics& m, const std::string& kind);

/// `n` extra copies made by a fault model; each also records sent().
/// net.dup
void dup(sim::Metrics& m, std::uint64_t n = 1);

/// Held back by an injected delay spike. net.delayed
void delayed(sim::Metrics& m);

/// Sent to an endpoint owned by another process. net.remote.out
void remote_out(sim::Metrics& m);

/// Received from another process. net.remote.in, net.remote.in.<kind>
void remote_in(sim::Metrics& m, const std::string& kind);

/// An inbound frame nobody was waiting for. net.stray
void stray(sim::Metrics& m);

/// Empty if both identities above hold in `m`; otherwise a one-line
/// description of the first that does not.
std::string identity_error(const sim::Metrics& m);

}  // namespace hkws::net::ledger
