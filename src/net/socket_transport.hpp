// Shared machinery of the socket Transport backends (TcpTransport,
// UdpTransport): everything between the Transport interface and the actual
// sockets lives here, so both backends carry identical semantics.
//
// Threading: one rule. After set-up, only the dispatch strand mutates the
// runtime's state — the Metrics registry, the parked-handler table,
// message ids, the observer / payload / peer-down slots and the outbound
// sockets. A send or setter called from any other thread is posted to the
// strand, which runs it while the caller waits; once stop() has returned,
// calls act directly on the calling thread. The io thread only reads and
// decodes frames and hands each envelope to the strand.
//
//   * the dispatch strand: one thread executing delivered handlers, due
//     timers and posted calls serialized, the simulator's single-event-
//     loop discipline;
//   * the parked-handler table: closure-based send() parks the delivery
//     handler, ships an addressed envelope through the backend's wire, and
//     the strand redeems the handler by message id when the envelope
//     returns. Entries carry a deadline; the strand wakes at the oldest one
//     and records entries whose envelope died on the wire as lost, so a
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
//     released, so wait_idle() never returns on an open identity.
//
// Backends implement the wire: wire_send() (called on the strand) writes
// one encoded envelope frame either to the loopback self-wire (remote ==
// nullptr) or to a remote process's address, and their io threads feed
// received envelopes back through on_envelope().
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

  /// Written only by the strand; read it from another thread after
  /// wait_idle() (or from a handler posted to the strand).
  sim::Metrics& metrics() override { return metrics_; }
  const sim::Metrics& metrics() const override { return metrics_; }
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
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }

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

  /// Writes one encoded envelope frame; runs on the strand. `remote` is
  /// nullptr for the loopback self-wire (parked-handler mode) or the owning
  /// process's address for cross-process payload frames.
  virtual WireLoss wire_send(const std::vector<std::uint8_t>& frame,
                             const sockaddr_in* remote) = 0;

  /// Launches the dispatch thread (call once sockets are up).
  void start_dispatch();

  /// Flags the runtime stopping and wakes every waiter. Returns false if
  /// already stopping (stop() must then return without re-joining).
  bool begin_stop();
  void join_dispatch();
  bool stopping() const { return halted_.load(std::memory_order_acquire); }

  /// Records every message still in flight lost (net.dropped.conn): the
  /// runtime stopped under it. Then hands the runtime's state to whichever
  /// thread calls next. Backends call this last in stop(), once their io
  /// thread has joined.
  void finish_stop();

  /// The one door from other threads onto strand-owned state: if the
  /// calling thread owns that state (it is the strand, or stop() has
  /// finished) returns false and the caller acts itself; otherwise runs
  /// `call` on the strand, waits for it, and returns true.
  template <class Call>
  bool post_to_strand(Call&& call) {
    if (owns_state()) return false;
    run_posted([&call] { call(); });
    return true;
  }

  /// Inbound envelope, from the backend's io thread: hands it to the
  /// strand, which redeems the parked handler (empty payload) or
  /// dispatches the decoded cross-process payload message.
  void on_envelope(EnvelopeMsg&& env);

  /// Looks up `id` in the peer-address table. False if it has no address
  /// (the endpoint is local or unknown).
  bool lookup_addr(EndpointId id, sockaddr_in* out) const;

  /// Counts one failed envelope/payload decode (decode_errors()).
  void note_decode_error() {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
  }

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

  /// Work queued for the strand; each entry holds one in-flight slot until
  /// it has run. `fn` is a local send, a remote payload or a posted call;
  /// when it is empty, the envelope of parked message `msg_id` came back.
  struct Ready {
    Handler fn;
    std::uint64_t msg_id = 0;
    bool* done = nullptr;  ///< posted call: set once it has run
  };

  bool owns_state() const;
  void run_posted(const Handler& call);
  void dispatch_loop();
  void enqueue_ready(Ready r);
  /// Runs the handler parked under `msg_id` (or records a stray); returns
  /// the number of parked slots that released.
  std::uint64_t redeem(std::uint64_t msg_id);
  /// Records parked entries whose deadline is at or before `cutoff` lost
  /// to the wire.
  void sweep_parked(Clock::time_point cutoff);
  void report_peer_down(EndpointId to);

  CommonConfig common_;
  Clock::time_point start_;

  // Registered endpoints. The lock is for set-up and test threads, which
  // register endpoints while the strand reads membership on every send.
  mutable std::shared_mutex peers_mu_;
  std::unordered_set<EndpointId> registered_;
  // Endpoints already reported down (avoids a storm of peer-down callbacks
  // when many frames hit the same dead connection); register_endpoint
  // resets an entry, so it shares peers_mu_.
  std::unordered_map<EndpointId, bool> down_reported_;

  // Endpoints owned by other processes, keyed to their socket address. The
  // lock is for the threads that fill the table (peerd's main thread,
  // tests) while the strand routes payload sends through it.
  mutable std::shared_mutex addrs_mu_;
  std::unordered_map<EndpointId, sockaddr_in> addrs_;

  // Strand-owned state. Parked handlers are ordered by message id, which
  // is also deadline order, so the oldest deadline is parked_.begin().
  std::map<std::uint64_t, ParkedEntry> parked_;
  std::uint64_t next_msg_ = 1;
  sim::Metrics metrics_;
  SendObserver observer_;
  PeerDownObserver peer_down_;

  // The strand's queues. The lock is for every thread that feeds them:
  // the io thread (returned envelopes), timer and schedule_in callers, and
  // wait_idle() / posted-call waiters.
  mutable std::mutex strand_mu_;
  std::condition_variable strand_cv_;
  std::condition_variable idle_cv_;
  std::deque<Ready> ready_;  ///< delivered, FIFO
  std::map<ScheduleKey, TimerEntry> schedule_;  ///< timers + plain events
  std::unordered_map<TimerId, ScheduleKey> timer_keys_;  ///< cancel index
  std::uint64_t pending_events_ = 0;  ///< schedule_ entries with id == 0
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_seq_ = 0;
  /// Parked wire messages plus queued or running ready_ entries.
  std::uint64_t inflight_ = 0;
  bool stopping_ = false;
  std::atomic<bool> halted_{false};  ///< lock-free mirror of stopping_
  /// Set by finish_stop(): calls from any thread now act directly.
  std::atomic<bool> torn_down_{false};

  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> drop_inbound_{0};

  std::thread dispatch_thread_;
};

}  // namespace hkws::net
