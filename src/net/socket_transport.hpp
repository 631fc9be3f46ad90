// Shared machinery of the socket Transport backends (TcpTransport,
// UdpTransport): everything between the Transport interface and the actual
// sockets lives here, so both backends carry identical semantics —
//
//   * the dispatch strand: one thread executing delivered handlers and due
//     timers serialized, the simulator's single-event-loop discipline;
//   * the parked-handler table: closure-based send() parks the delivery
//     handler, ships an addressed envelope through the backend's wire, and
//     redeems the handler by message id when the envelope returns. Entries
//     carry a deadline; a periodic sweep (driven from the backend's io
//     loop) releases entries whose envelope died on the wire as lost, so a
//     read-side frame death can never leak an in-flight slot and wedge
//     drain_and_stop();
//   * the peer-address table: endpoints owned by other processes, mapped
//     to their socket addresses. send_payload() to an addressed endpoint
//     serializes the real message (wire codec frame inside the envelope's
//     payload field) and routes it to the owning process, which decodes it
//     and dispatches to its payload handler on its own strand;
//   * accounting: every fate goes through net/ledger.hpp, so each
//     process's ledger identities hold over the traffic it originated. A
//     wire message's fate is recorded before its in-flight slot is
//     released, by whichever path takes its parked entry out (redemption,
//     sweep, send error, stop), so wait_idle() never returns on an open
//     identity.
//
// Backends implement the wire: wire_send() writes one encoded envelope
// frame either to the loopback self-wire (remote == nullptr) or to a
// remote process's address, and their io threads feed received envelopes
// back through on_envelope() and call sweep_parked() periodically.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/ledger.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace hkws::net {

class SocketTransport : public Transport {
 public:
  /// Knobs every socket backend shares (each backend's Config embeds one).
  struct CommonConfig {
    /// Wall-clock duration of one transport tick. Protocol timeout
    /// constants are written in ticks (sim convention: ~1ms); the default
    /// compresses them 10x so loss-recovery tests stay fast.
    std::chrono::microseconds tick{100};
    /// Cap on per-frame padding bytes (real serialization cost tracks the
    /// declared payload size up to this bound).
    std::uint32_t max_pad = 64 * 1024;
    /// How long a parked delivery handler may wait for its envelope before
    /// the sweep declares the frame dead on the wire (net.dropped.conn).
    /// Generous vs loopback latency; tests shrink it to exercise the sweep.
    std::chrono::milliseconds parked_ttl{3000};
  };

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // --- Transport interface ------------------------------------------------

  void register_endpoint(EndpointId id) override;
  void unregister_endpoint(EndpointId id) override;
  bool is_registered(EndpointId id) const override;

  void send(EndpointId from, EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override;

  bool set_peer_address(EndpointId id, const PeerAddr& addr) override;
  bool has_peer_address(EndpointId id) const override;
  void set_payload_handler(PayloadHandler fn) override;
  void send_payload(EndpointId from, EndpointId to, MsgKind kind,
                    const WireMessage& msg) override;

  Time now() const override;
  void schedule_in(Time delay, Handler fn) override;
  TimerId set_timer(Time delay, Handler fn) override;
  bool cancel_timer(TimerId id) override;

  sim::Metrics& metrics() override { return metrics_; }
  const sim::Metrics& metrics() const override { return metrics_; }
  void record(const std::function<void(sim::Metrics&)>& fn) override;
  void set_send_observer(SendObserver fn) override;

  // --- Runtime control ----------------------------------------------------

  /// Blocks until no message is in flight, the dispatch queue is empty, and
  /// no plain scheduled event (schedule_in) is pending — cancelable timers
  /// (retransmission guards) do not count. Returns false on timeout.
  bool wait_idle(std::chrono::milliseconds timeout);

  /// Stops the runtime: closes sockets, joins threads, drops queued work.
  /// Idempotent; the destructor calls it.
  virtual void stop() = 0;

  /// Graceful shutdown: waits (up to `timeout`) for in-flight messages and
  /// plain scheduled events to drain, then stops. Returns whether the
  /// runtime actually went idle before stopping — false means queued work
  /// was dropped, exactly what stop() alone always does.
  bool drain_and_stop(std::chrono::milliseconds timeout);

  /// Peer-down hook: invoked on the dispatch strand when the transport
  /// positively observes a destination's connection die under a frame (a
  /// wire write fails). Fires at most once per endpoint between
  /// registrations. This is the fast-path liveness signal the maintenance
  /// plane's FailureDetector consumes instead of waiting out heartbeat
  /// misses. Install before traffic starts; nullptr removes.
  using PeerDownObserver = std::function<void(EndpointId)>;
  void set_peer_down_observer(PeerDownObserver fn);

  /// Cancelable timers currently pending (the torture harness's timer
  /// invariant reads this; parity with sim::EventQueue::live_timer_count).
  std::size_t live_timer_count() const;

  /// Wall-clock duration of one transport tick (backend-configured).
  std::chrono::microseconds tick() const noexcept { return common_.tick; }

  /// Wire frames that failed envelope (or inner payload) decode — 0 in a
  /// healthy runtime.
  std::uint64_t decode_errors() const;

  /// Test/fault hook: the io thread silently discards the next `n` inbound
  /// envelopes, exactly as if the frames had died on the read side of the
  /// wire. Parked senders then wait on the deadline sweep — this is how the
  /// parked-leak regression test kills frames deterministically.
  void drop_inbound(std::uint64_t n);

 protected:
  using Clock = std::chrono::steady_clock;

  explicit SocketTransport(CommonConfig common);

  /// Why the wire lost a frame, or nullopt once the socket accepted it:
  /// kConn when the connection or socket is gone, kFault when the
  /// backend's drop model discarded the frame.
  using WireLoss = std::optional<ledger::Cause>;

  /// Writes one encoded envelope frame. `remote` is nullptr for the
  /// loopback self-wire (parked-handler mode) or the owning process's
  /// address for cross-process payload frames.
  virtual WireLoss wire_send(const std::vector<std::uint8_t>& frame,
                             const sockaddr_in* remote) = 0;

  /// Launches the dispatch thread (call once sockets are up).
  void start_dispatch();

  /// Flags the runtime stopping and wakes every waiter. Returns false if
  /// already stopping (stop() must then return without re-joining).
  bool begin_stop();
  void join_dispatch();
  bool stopping() const { return halted_.load(std::memory_order_acquire); }

  /// Inbound envelope from the backend's io thread: redeems a parked
  /// handler (empty payload) or decodes + dispatches a cross-process
  /// payload message (non-empty payload).
  void on_envelope(const EnvelopeMsg& env);

  /// Records parked entries whose deadline is at or before `cutoff` lost
  /// to the wire. Backends call this from their io loop (each poll
  /// timeout tick).
  void sweep_parked(Clock::time_point cutoff = Clock::now());

  /// Records every message still in flight — parked, or redeemed but not
  /// yet run — as lost (net.dropped.conn): the runtime stopped under it.
  /// Backends call this from stop() once their io thread has joined.
  void abandon_inflight();

  /// Looks up `id` in the peer-address table. False if it has no address
  /// (the endpoint is local or unknown).
  bool lookup_addr(EndpointId id, sockaddr_in* out) const;

  /// Counts one failed envelope/payload decode (decode_errors()).
  void note_decode_error();

 private:
  /// A parked delivery handler waiting for its envelope to return.
  struct ParkedEntry {
    Handler fn;
    std::string kind;             ///< for loss attribution if swept
    Clock::time_point deadline;   ///< sweep releases past this
  };

  /// Schedule key: (deadline, insertion seq) — FIFO among equal deadlines,
  /// the simulator's tie-break discipline.
  using ScheduleKey = std::pair<Clock::time_point, std::uint64_t>;

  struct TimerEntry {
    TimerId id = 0;  ///< 0 = plain event (schedule_in, not cancelable)
    Handler fn;
  };

  /// A handler queued for the strand. A `wire` entry is a parked message
  /// whose envelope came back: it records delivered when it runs, or lost
  /// if the runtime stops first. Other entries (local sends, remote
  /// payloads) take an in-flight slot when queued.
  struct Ready {
    Handler fn;
    bool wire = false;
    std::string kind;  ///< wire entries only, for loss attribution
  };

  void dispatch_loop();
  void enqueue_ready(Ready r);
  void report_peer_down(EndpointId to);
  std::uint64_t next_msg_id();
  /// Records one in-flight wire message lost, then releases its slot.
  void settle_lost(const std::string& kind, ledger::Cause why);

  CommonConfig common_;
  Clock::time_point start_;

  // Registered endpoints: reader-writer lock, sends read, membership
  // writes.
  mutable std::shared_mutex peers_mu_;
  std::unordered_set<EndpointId> registered_;

  // Endpoints owned by other processes, keyed to their socket address.
  mutable std::shared_mutex addrs_mu_;
  std::unordered_map<EndpointId, sockaddr_in> addrs_;

  // Parked delivery handlers keyed by envelope message id.
  std::mutex handlers_mu_;
  std::unordered_map<std::uint64_t, ParkedEntry> parked_;
  std::uint64_t next_msg_ = 1;

  // Dispatch strand state.
  mutable std::mutex strand_mu_;
  std::condition_variable strand_cv_;
  std::condition_variable idle_cv_;
  std::deque<Ready> ready_;  ///< delivered, FIFO
  std::map<ScheduleKey, TimerEntry> schedule_;  ///< timers + plain events
  std::unordered_map<TimerId, ScheduleKey> timer_keys_;  ///< cancel index
  std::uint64_t pending_events_ = 0;  ///< schedule_ entries with id == 0
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inflight_ = 0;  ///< sent-not-yet-executed messages
  bool stopping_ = false;
  std::atomic<bool> halted_{false};  ///< lock-free mirror of stopping_

  // Accounting (metrics_mu_ also serializes the observer, matching the
  // sim's synchronous-from-send() contract).
  mutable std::mutex metrics_mu_;
  sim::Metrics metrics_;
  SendObserver observer_;
  PeerDownObserver peer_down_;
  std::uint64_t decode_errors_ = 0;

  // Endpoints already reported down (avoids a storm of peer-down callbacks
  // when many frames hit the same dead connection). Guarded by peers_mu_.
  std::unordered_map<EndpointId, bool> down_reported_;

  std::atomic<std::uint64_t> drop_inbound_{0};

  std::thread dispatch_thread_;
};

}  // namespace hkws::net
