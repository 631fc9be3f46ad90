// Shared machinery of the socket Transport backends (TcpTransport,
// UdpTransport): everything between the Transport interface and the actual
// sockets lives here, so both backends carry identical semantics.
//
// Threading: one rule. After set-up, only the dispatch strand mutates the
// runtime's state — the Metrics registry, the parked-handler table,
// message ids, the outboxes, the observer / payload / peer-down slots and
// the outbound sockets. A send or setter called from any other thread is
// posted to the strand, which runs it while the caller waits; once stop()
// has returned, calls act directly on the calling thread. The io thread
// only reads and decodes frames and hands them to the strand.
//
//   * the dispatch strand: one thread executing delivered handlers, due
//     timers and posted calls serialized, the simulator's single-event-
//     loop discipline. It works in turns: a turn runs every entry the
//     ready queue held when the turn began, then flushes the outboxes;
//   * the outboxes: one per destination (the loopback self-wire and each
//     remote address). send() and send_payload() encode the envelope
//     straight into the destination's outbox; nothing reaches a socket
//     until a flush, which hands each destination's frames to the backend
//     in one write. The strand flushes at the end of every turn (so a
//     call posted from another thread returns with its frames' fates
//     decided), within a turn once a tick has passed since the last flush,
//     after every timer or event it runs (so heartbeats and
//     retransmissions never wait behind the next turn), and as soon as one
//     destination holds more than kFlushBytes. Calls that act directly
//     after stop() flush at once; TcpTransport::sever_wire() flushes
//     before it cuts. Protocol timeouts count in ticks, so a frame waits
//     in an outbox for at most about a tick, and after a flush that
//     looped frames through the self-wire, due cancelable timers (the
//     guards: ack and step timeouts) wait until those frames have come
//     back (at most kLoopWaitTicks), so a reply in a batch is not beaten
//     by the timer guarding it just because it left at the end of the
//     turn;
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
//     message records sent() when it is queued; the flush records what the
//     wire did with its frame — lost() when the frame was not accepted
//     whole, delivered() for an accepted payload frame, while an accepted
//     parked frame waits for its envelope — and emits its SendRecord
//     there. A queued frame holds an in-flight slot, and every fate is
//     recorded before its slot is released, so wait_idle() never returns
//     on an open identity or with frames still queued.
//
// Backends implement the wire: wire_flush() (called on the strand) writes
// one destination's queued frames and marks each one the wire refused, and
// their io threads decode what they read with decode_inbound() and hand
// each read's envelopes to the strand at once with hand_off().
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
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

  /// A destination's outbox is flushed early once it holds more than this
  /// many bytes, which bounds both its buffer and one write.
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  /// Longest a due cancelable timer waits for frames just looped through
  /// the self-wire to come back: far above a loopback round trip, far
  /// below the protocol's guard timeouts (30 ticks and up).
  static constexpr int kLoopWaitTicks = 10;

  explicit SocketTransport(CommonConfig common);

  /// Why the wire lost a frame, or nullopt once the socket accepted it:
  /// kConn when the connection or socket is gone, kFault when the
  /// backend's drop model discarded the frame.
  using WireLoss = std::optional<ledger::Cause>;

  /// One frame waiting in an outbox.
  struct QueuedFrame {
    std::size_t end = 0;  ///< offset just past the frame in Outbox::bytes
    WireLoss loss;        ///< the backend's verdict, set by wire_flush()
    std::uint64_t msg_id = 0;  ///< its parked handler; 0 = a payload frame
    MsgKind kind = MsgKind::kOpaque;  ///< a payload frame's kind
    EndpointId from = 0;
    EndpointId to = 0;
    std::size_t bytes = 0;  ///< declared payload bytes (SendRecord)
  };

  /// Frames queued for one destination, in send order. Strand state.
  struct Outbox {
    bool remote = false;  ///< false: the loopback self-wire
    sockaddr_in addr{};   ///< the owning process's address, when remote
    std::vector<std::uint8_t> bytes;  ///< the encoded frames, back to back
    std::vector<QueuedFrame> frames;
  };

  /// Writes every frame of `box`, in order; runs on the strand. Sets
  /// `loss` on each frame the wire did not accept whole.
  virtual void wire_flush(Outbox& box) = 0;

  /// Hands every queued frame to the wire and records each one's fate.
  void flush_outboxes();

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

  /// Work queued for the strand; each entry holds one in-flight slot until
  /// it has run. `fn` is a local send, a remote payload or a posted call;
  /// when it is empty, the envelope of parked message `msg_id` came back.
  struct Ready {
    Handler fn;
    std::uint64_t msg_id = 0;
    bool* done = nullptr;  ///< posted call: set once it has run
  };

  /// Decodes the envelope frame [data, data+len) an io thread read and
  /// appends the strand's work for it to `batch`: redeeming the parked
  /// handler (empty payload) or dispatching the decoded cross-process
  /// payload message. Returns false on a malformed frame (counted in
  /// decode_errors()).
  bool decode_inbound(const std::uint8_t* data, std::size_t len,
                      std::vector<Ready>& batch);

  /// Hands a read's worth of decoded envelopes to the strand under one
  /// lock with one wake-up, and leaves `batch` empty.
  void hand_off(std::vector<Ready>& batch);

  /// Looks up `id` in the peer-address table. False if it has no address
  /// (the endpoint is local or unknown).
  bool lookup_addr(EndpointId id, sockaddr_in* out) const;

  /// Key of a socket address: one outbox, one connection per process.
  static std::uint64_t addr_key(const sockaddr_in& sa);

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

  bool owns_state() const;
  void run_posted(const Handler& call);
  void dispatch_loop();
  void enqueue_ready(Ready r);
  /// Encodes envelope_ at the end of `box`; returns the frame's size (0:
  /// the frame could not be encoded and `box` is unchanged).
  std::size_t encode_envelope(Outbox& box);
  /// Queues the frame just encoded into `box`; flushes `box` once it holds
  /// more than kFlushBytes.
  void queue_frame(Outbox& box, const QueuedFrame& f);
  void flush(Outbox& box);
  /// After stop() there is no strand to flush: a direct call flushes at
  /// once.
  void flush_if_detached();
  /// Applies the strand's slot changes to inflight_; strand_mu_ held.
  void settle() {
    inflight_ += static_cast<std::uint64_t>(slots_);
    slots_ = 0;
  }
  /// A frame of the last flush that looped any is still on its way back
  /// through the self-wire (or was lost there).
  bool looping() const {
    const auto it = parked_.lower_bound(loop_lo_);
    return it != parked_.end() && it->first <= loop_hi_;
  }
  /// No message in flight, no queued work, no pending plain event;
  /// strand_mu_ held.
  bool idle() const {
    return inflight_ == 0 && ready_.empty() && pending_events_ == 0;
  }
  /// Runs the handler parked under `msg_id` (or records a stray).
  void redeem(std::uint64_t msg_id);
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
  // The outboxes (remote ones keyed by addr_key; node-based, so pointers
  // into the map stay valid) and those holding frames, to flush.
  Outbox self_box_;
  std::unordered_map<std::uint64_t, Outbox> remote_boxes_;
  std::vector<Outbox*> dirty_;
  /// Reused to encode every envelope (its payload buffer too), so a send
  /// allocates no frame.
  WireMessage envelope_{EnvelopeMsg{}};
  /// Slots taken (queued frames) minus slots released (fates recorded)
  /// since the strand last held strand_mu_.
  std::int64_t slots_ = 0;
  /// Parked frames [loop_lo_, loop_hi_] went onto the self-wire in the
  /// last flush that looped any; until returns_due_, due cancelable timers
  /// wait while one of them has not come back.
  std::uint64_t loop_lo_ = 0;
  std::uint64_t loop_hi_ = 0;
  Clock::time_point returns_due_{};

  // The strand's queues. The lock is for every thread that feeds them:
  // the io thread (returned envelopes), timer and schedule_in callers, and
  // wait_idle() / posted-call waiters.
  mutable std::mutex strand_mu_;
  std::condition_variable strand_cv_;
  std::condition_variable idle_cv_;
  std::vector<Ready> ready_;  ///< delivered, FIFO; the strand takes it whole
  std::map<ScheduleKey, TimerEntry> schedule_;  ///< timers + plain events
  std::unordered_map<TimerId, ScheduleKey> timer_keys_;  ///< cancel index
  std::uint64_t pending_events_ = 0;  ///< schedule_ entries with id == 0
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_seq_ = 0;
  /// Queued frames, parked wire messages, and queued or running ready_
  /// entries.
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
