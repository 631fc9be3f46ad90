// The Transport abstraction: the narrow waist between the protocol state
// machines (DOLR, overlay routing, the hypercube keyword index, the
// maintenance plane, the serving engine) and whatever actually moves their
// messages. Everything a protocol layer may do to the outside world goes
// through this interface:
//
//  * message dispatch — send() delivers a handler at a destination endpoint
//    after the transport's notion of latency;
//  * time — now(), one-shot events (schedule_in) and cancelable timers
//    (set_timer / cancel_timer), the hooks behind every protocol timeout;
//  * endpoint liveness — register/unregister/is_registered;
//  * accounting — a Metrics registry into which every backend records
//    each message's fate through the message ledger (net/ledger.hpp), and
//    a per-send observer for the tracing subsystem, so per-kind counters
//    and hop traces stay truthful whichever backend carries the traffic.
//
// Three implementations ship today:
//  * sim::Network — the deterministic discrete-event simulator (see
//    src/sim/network.hpp). It *is* the SimTransport: the event queue
//    supplies virtual time, latency/drop/fault models shape the fabric, and
//    seeded RNG keeps runs bit-identical.
//  * net::TcpTransport — the real runtime (see src/net/tcp_transport.hpp):
//    loopback TCP sockets, an io thread, a dispatch strand, wall-clock
//    timers, and the binary envelope codec of src/net/wire.hpp on every
//    wire message.
//  * net::UdpTransport — the lossy datagram runtime (see
//    src/net/udp_transport.hpp): one socket per process, every envelope a
//    datagram, with a seeded drop model standing in for real packet loss.
// The TCP/UDP backends share net::SocketTransport (strand, timers, parked
// handlers, peer-address routing); both deliver cross-process payload
// messages to other processes listed in the peer-address table.
//
// Contract notes shared by all implementations (inherited from the
// simulator's semantics, which the protocol layers were written against):
//  * Local sends (from == to) are free: delivered asynchronously, recorded
//    as the ledger's "local" fate, not as network messages.
//  * Sends to unregistered endpoints are silently discarded (models absent
//    peers): the "unregistered" fate, the only one that counts
//    net.dropped.<kind>.
//  * Every wire message records exactly one fate after "sent": delivered,
//    or lost to one cause. net/ledger.hpp states the two identities this
//    keeps, which hold per backend (per process) once traffic drains.
//  * Handlers run one at a time, in delivery order, never re-entrantly
//    inside send().
//  * Threading: after set-up, only one thread mutates a transport and the
//    protocol state above it — the sim's event loop, or a socket backend's
//    dispatch strand. Calls from other threads are posted there (the
//    socket backends do this inside send/send_payload and the setters), so
//    metrics() has a single writer and decorators record into it directly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/wire.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace hkws::net {

/// Identifies a process/endpoint (a physical peer). Shared with the
/// simulator's EndpointId — one flat 64-bit space on every backend.
using EndpointId = std::uint64_t;

/// Transport time in abstract ticks. The simulator's virtual clock and the
/// TCP backend's wall clock (scaled by its configured tick duration) both
/// count in these units, so protocol timeout constants are portable.
using Time = sim::Time;

/// One wire message, reported to the send observer after the backend has
/// decided its fate. Duplicated messages report once per wire copy; local
/// sends and sends to unregistered endpoints do not report.
struct SendRecord {
  Time at = 0;  ///< send time
  EndpointId from = 0;
  EndpointId to = 0;
  std::size_t bytes = 0;
  bool lost = false;   ///< dropped by a drop or fault model
  Time deliver_at = 0; ///< arrival time (== at when lost)
};

/// Where a remote endpoint's owning process listens. Socket backends route
/// sends to endpoints with a registered address across process boundaries;
/// everything else stays in-process.
struct PeerAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class Transport {
 public:
  /// Delivery action run at the destination when a message arrives.
  using Handler = std::function<void()>;

  /// Handle of a cancelable timer. 0 is never a valid handle.
  using TimerId = std::uint64_t;

  using SendObserver =
      std::function<void(const std::string& kind, const SendRecord&)>;

  virtual ~Transport() = default;

  // --- Endpoints ----------------------------------------------------------

  /// Declares an endpoint reachable. Sends to unregistered endpoints are
  /// silently discarded (the ledger's "unregistered" fate).
  virtual void register_endpoint(EndpointId id) = 0;
  virtual void unregister_endpoint(EndpointId id) = 0;
  virtual bool is_registered(EndpointId id) const = 0;

  // --- Message dispatch ---------------------------------------------------

  /// Sends one message. `kind` labels the protocol message type for
  /// accounting ("dolr.insert", "kws.t_query", ...; the labels of
  /// docs/PROTOCOL.md). `deliver` runs at the destination after the
  /// backend's latency; `payload_bytes` feeds byte accounting (and, on the
  /// TCP backend, sizes the frame actually serialized onto the socket).
  virtual void send(EndpointId from, EndpointId to, std::string kind,
                    std::size_t payload_bytes, Handler deliver) = 0;

  // --- Cross-process addressing & payload delivery ------------------------
  //
  // send() carries a closure, which cannot cross a process boundary. The
  // payload path carries the message itself: a wire-codec frame addressed
  // (from, to) that the destination process decodes and hands to its
  // payload handler on the dispatch strand. Backends without cross-process
  // support (the simulator) loop the encoded frame back through send(), so
  // the codec is exercised and accounting is identical either way.

  /// Delivery hook for payload messages. Runs on the dispatch strand (or
  /// the sim event loop), one at a time, like send() handlers.
  using PayloadHandler = std::function<void(
      EndpointId from, EndpointId to, MsgKind kind, const WireMessage& msg)>;

  /// Declares that `id` lives in the process listening at `addr`. Sends to
  /// `id` are then serialized and routed there instead of delivered
  /// in-process. Returns false if the backend cannot route cross-process
  /// (the simulator, decorators over it).
  virtual bool set_peer_address(EndpointId id, const PeerAddr& addr) {
    (void)id;
    (void)addr;
    return false;
  }

  /// True if `id` has a peer address (lives in another process).
  virtual bool has_peer_address(EndpointId id) const {
    (void)id;
    return false;
  }

  /// Installs the handler payload messages are dispatched to. Install it
  /// before traffic starts; one handler per transport.
  virtual void set_payload_handler(PayloadHandler fn) {
    payload_handler_ = std::move(fn);
  }

  /// Sends `msg` (layout must match `kind`) from `from` to `to` through the
  /// wire codec. Local and sim deliveries decode the frame back and invoke
  /// the payload handler; remote deliveries ship it to the owning process.
  /// Accounting matches send(): the same ledger fates.
  virtual void send_payload(EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::vector<std::uint8_t> frame = encode_frame(kind, msg);
    if (frame.empty()) return;  // layout mismatch: programming error upstream
    const std::size_t bytes = frame.size();
    send(from, to, kind_name(kind), bytes,
         [this, from, to, frame = std::move(frame)]() {
           if (!payload_handler_) return;
           std::optional<DecodedFrame> d =
               decode_frame(frame.data(), frame.size());
           if (d.has_value()) payload_handler_(from, to, d->kind, d->msg);
         });
  }

  // --- Time and timers ----------------------------------------------------

  /// Current transport time in ticks.
  virtual Time now() const = 0;

  /// Schedules `fn` to run at now() + delay (a plain one-shot event).
  virtual void schedule_in(Time delay, Handler fn) = 0;

  /// Schedules a cancelable timer firing once at now() + delay.
  virtual TimerId set_timer(Time delay, Handler fn) = 0;

  /// Cancels a pending timer. Returns true if it was still pending (it will
  /// now never fire); false if it already fired or never existed.
  virtual bool cancel_timer(TimerId id) = 0;

  // --- Accounting ---------------------------------------------------------

  virtual sim::Metrics& metrics() = 0;
  virtual const sim::Metrics& metrics() const = 0;

  /// Installs (or, with nullptr, removes) a per-send observer — the tracing
  /// hook (see src/obs). Invoked once the backend has decided the frame's
  /// fate: synchronously from send() on the simulator, at the outbox flush
  /// on the socket backends. Keep it cheap, and do not send from it. The
  /// observer must outlive the transport or be removed first.
  virtual void set_send_observer(SendObserver fn) = 0;

 protected:
  /// Installed by set_payload_handler(); read by delivery paths.
  PayloadHandler payload_handler_;
};

}  // namespace hkws::net
