#include "net/socket_transport.hpp"

#include <arpa/inet.h>

#include <cstring>

#include "net/ledger.hpp"

namespace hkws::net {

SocketTransport::SocketTransport(CommonConfig common)
    : common_(common), start_(Clock::now()) {}

SocketTransport::~SocketTransport() {
  // Backends stop themselves in their destructors (they own the sockets and
  // io thread); this is the backstop so a half-constructed backend cannot
  // leak the dispatch thread.
  if (dispatch_thread_.joinable()) {
    begin_stop();
    dispatch_thread_.join();
  }
}

void SocketTransport::start_dispatch() {
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
}

bool SocketTransport::begin_stop() {
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return false;
    stopping_ = true;
  }
  halted_.store(true, std::memory_order_release);
  strand_cv_.notify_all();
  idle_cv_.notify_all();
  return true;
}

void SocketTransport::join_dispatch() {
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
}

// --- Endpoints (reader-writer-locked per-peer state) ------------------------

void SocketTransport::register_endpoint(EndpointId id) {
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  registered_.insert(id);
  down_reported_[id] = false;  // a re-registered peer may be reported again
}

void SocketTransport::unregister_endpoint(EndpointId id) {
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  registered_.erase(id);
}

bool SocketTransport::is_registered(EndpointId id) const {
  std::shared_lock<std::shared_mutex> lk(peers_mu_);
  return registered_.contains(id);
}

// --- Peer-address table -----------------------------------------------------

bool SocketTransport::set_peer_address(EndpointId id, const PeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (addr.host.empty() || addr.host == "localhost") {
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return false;
  }
  std::unique_lock<std::shared_mutex> lk(addrs_mu_);
  addrs_[id] = sa;
  return true;
}

bool SocketTransport::has_peer_address(EndpointId id) const {
  std::shared_lock<std::shared_mutex> lk(addrs_mu_);
  return addrs_.find(id) != addrs_.end();
}

void SocketTransport::set_payload_handler(PayloadHandler fn) {
  // Under metrics_mu_, which on_envelope() holds when it reads the handler:
  // that orders this write before the io and dispatch threads' reads.
  std::lock_guard<std::mutex> lk(metrics_mu_);
  payload_handler_ = std::move(fn);
}

bool SocketTransport::lookup_addr(EndpointId id, sockaddr_in* out) const {
  std::shared_lock<std::shared_mutex> lk(addrs_mu_);
  const auto it = addrs_.find(id);
  if (it == addrs_.end()) return false;
  *out = it->second;
  return true;
}

// --- Send (parked-handler mode) ---------------------------------------------

void SocketTransport::send(EndpointId from, EndpointId to, std::string kind,
                           std::size_t payload_bytes, Handler deliver) {
  if (from == to) {
    // Local call: no wire traffic, async delivery — the simulator's
    // contract, preserved so protocol code behaves identically.
    {
      std::lock_guard<std::mutex> lk(metrics_mu_);
      ledger::local(metrics_);
    }
    enqueue_ready(Ready{std::move(deliver), false, {}});
    return;
  }
  if (!is_registered(to)) {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    ledger::unregistered(metrics_, kind);
    return;
  }

  EnvelopeMsg env;
  const std::optional<MsgKind> known = kind_of(kind);
  env.inner_kind = known.value_or(MsgKind::kOpaque);
  if (!known.has_value()) env.label = kind;
  const std::uint64_t msg_id = next_msg_id();
  env.msg_id = msg_id;
  env.from = from;
  env.to = to;
  env.declared_bytes = payload_bytes;
  env.pad = static_cast<std::uint32_t>(
      std::min<std::size_t>(payload_bytes, common_.max_pad));
  const std::vector<std::uint8_t> frame =
      encode_frame(MsgKind::kEnvelope, WireMessage{env});

  // Record the send, take the in-flight slot, then park the handler: every
  // path that later takes the entry out (redemption, sweep, send error,
  // stop) finds both already in place. The io thread redeems the handler by
  // message id when the envelope comes back off the socket; the deadline
  // bounds how long a frame the wire swallowed can hold its slot.
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    ledger::sent(metrics_, kind, payload_bytes, frame.size());
  }
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    ++inflight_;
  }
  {
    std::lock_guard<std::mutex> lk(handlers_mu_);
    parked_.emplace(msg_id, ParkedEntry{std::move(deliver), kind,
                                        Clock::now() + common_.parked_ttl});
  }

  const WireLoss loss = wire_send(frame, nullptr);
  if (loss) {
    // The wire swallowed the frame (connection death, stop() racing a late
    // send, or the backend's drop model): the message is lost, not
    // delivered — unless the sweep or stop() already took the entry and
    // recorded that. A dead connection is additionally a positive liveness
    // signal the failure detector can act on immediately.
    bool ours;
    {
      std::lock_guard<std::mutex> lk(handlers_mu_);
      ours = parked_.erase(msg_id) == 1;
    }
    if (ours) settle_lost(kind, *loss);
    if (*loss == ledger::Cause::kConn) report_peer_down(to);
  }
  // Observe after the wire has decided the frame's fate, so SendRecord.lost
  // is truthful — a frame the connection swallowed is never reported
  // delivered.
  std::lock_guard<std::mutex> lk(metrics_mu_);
  if (observer_) {
    const Time at = now();
    observer_(kind, SendRecord{at, from, to, payload_bytes, loss.has_value(),
                               at});
  }
}

// --- Send (cross-process payload mode) --------------------------------------

void SocketTransport::send_payload(EndpointId from, EndpointId to,
                                   MsgKind kind, const WireMessage& msg) {
  sockaddr_in remote;
  if (!lookup_addr(to, &remote)) {
    // No address: the endpoint is local — loop the encoded frame through
    // the parked-handler wire so accounting and codec coverage match.
    Transport::send_payload(from, to, kind, msg);
    return;
  }
  const std::string kind_label = kind_name(kind);
  std::vector<std::uint8_t> inner = encode_frame(kind, msg);
  if (inner.empty()) return;  // layout mismatch: programming error upstream
  const std::size_t declared = inner.size();

  EnvelopeMsg env;
  env.inner_kind = kind;
  env.msg_id = next_msg_id();
  env.from = from;
  env.to = to;
  env.declared_bytes = declared;
  env.payload = std::move(inner);
  env.pad = 0;  // the payload itself is the serialization cost
  const std::vector<std::uint8_t> frame =
      encode_frame(MsgKind::kEnvelope, WireMessage{std::move(env)});

  const WireLoss loss = wire_send(frame, &remote);
  // A cross-process message closes at the sender as soon as the wire has
  // accepted or refused the frame (the receiver records only remote_in),
  // so the whole fate is recorded at once.
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    ledger::sent(metrics_, kind_label, declared, frame.size());
    ledger::remote_out(metrics_);
    if (loss)
      ledger::lost(metrics_, kind_label, *loss);
    else
      ledger::delivered(metrics_);
    if (observer_) {
      const Time at = now();
      observer_(kind_label,
                SendRecord{at, from, to, declared, loss.has_value(), at});
    }
  }
  if (loss == ledger::Cause::kConn) report_peer_down(to);
}

std::uint64_t SocketTransport::next_msg_id() {
  std::lock_guard<std::mutex> lk(handlers_mu_);
  return next_msg_++;
}

void SocketTransport::settle_lost(const std::string& kind,
                                  ledger::Cause why) {
  // Fate first, slot second: a wait_idle() caller that sees the slot free
  // (under strand_mu_) also sees the loss.
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    ledger::lost(metrics_, kind, why);
  }
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    --inflight_;
  }
  idle_cv_.notify_all();
}

void SocketTransport::report_peer_down(EndpointId to) {
  {
    // At most one report per endpoint per registration: many frames can
    // hit the same dead wire.
    std::unique_lock<std::shared_mutex> lk(peers_mu_);
    if (down_reported_[to]) return;
    down_reported_[to] = true;
  }
  PeerDownObserver cb;
  {
    std::lock_guard<std::mutex> lk(metrics_mu_);
    cb = peer_down_;
  }
  if (!cb) return;
  // Marshal onto the dispatch strand: the consumer is protocol code
  // (FailureDetector) that must only ever run strand-serialized.
  schedule_in(0, [cb = std::move(cb), to] { cb(to); });
}

void SocketTransport::enqueue_ready(Ready r) {
  bool queued = false;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (!stopping_) {
      if (!r.wire) ++inflight_;  // wire sends took their slot in send()
      ready_.push_back(std::move(r));
      queued = true;
    }
  }
  if (queued)
    strand_cv_.notify_one();
  else if (r.wire)  // stopping: the handler will never run
    settle_lost(r.kind, ledger::Cause::kConn);
}

// --- Inbound envelopes (io threads) -----------------------------------------

void SocketTransport::on_envelope(const EnvelopeMsg& env) {
  // Test/fault hook: discard the next N inbound envelopes as if the frames
  // had died on the read side of the wire.
  std::uint64_t budget = drop_inbound_.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !drop_inbound_.compare_exchange_weak(budget, budget - 1,
                                              std::memory_order_relaxed)) {
  }
  if (budget > 0) return;

  if (!env.payload.empty()) {
    // Cross-process payload: decode the inner frame and dispatch it to the
    // payload handler on the strand. The sender's process recorded its
    // fate; here it is remote traffic in.
    std::optional<DecodedFrame> inner =
        decode_frame(env.payload.data(), env.payload.size());
    if (!inner.has_value() || inner->kind != env.inner_kind) {
      note_decode_error();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(metrics_mu_);
      if (!payload_handler_) {
        ledger::stray(metrics_);
        return;
      }
      ledger::remote_in(metrics_, kind_name(inner->kind));
    }
    enqueue_ready(Ready{
        [this, from = env.from, to = env.to, kind = inner->kind,
         msg = std::move(inner->msg)] { payload_handler_(from, to, kind, msg); },
        false, {}});
    return;
  }

  ParkedEntry e;
  {
    std::lock_guard<std::mutex> lk(handlers_mu_);
    const auto it = parked_.find(env.msg_id);
    if (it == parked_.end()) {
      // Unknown message id: a duplicate or stray frame. Count and drop.
      std::lock_guard<std::mutex> mlk(metrics_mu_);
      ledger::stray(metrics_);
      return;
    }
    e = std::move(it->second);
    parked_.erase(it);
  }
  enqueue_ready(Ready{std::move(e.fn), true, std::move(e.kind)});
}

void SocketTransport::sweep_parked(Clock::time_point cutoff) {
  std::vector<ParkedEntry> dead;
  {
    std::lock_guard<std::mutex> lk(handlers_mu_);
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (it->second.deadline <= cutoff) {
        dead.push_back(std::move(it->second));
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The envelope never came back: the frame died on the wire. Attribute
  // like any other connection loss — but no peer-down report; a lost frame
  // is packet death, not positive evidence the destination process died.
  for (const ParkedEntry& e : dead) settle_lost(e.kind, ledger::Cause::kConn);
}

void SocketTransport::abandon_inflight() {
  sweep_parked(Clock::time_point::max());
  std::deque<Ready> ready;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    ready.swap(ready_);
  }
  // The handlers are destroyed here, outside every lock.
  for (const Ready& r : ready)
    if (r.wire) settle_lost(r.kind, ledger::Cause::kConn);
}

void SocketTransport::note_decode_error() {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  ++decode_errors_;
}

// --- Dispatch strand --------------------------------------------------------

void SocketTransport::dispatch_loop() {
  std::unique_lock<std::mutex> lk(strand_mu_);
  while (true) {
    if (stopping_) break;
    const Clock::time_point now_tp = Clock::now();

    if (!ready_.empty()) {
      Ready r = std::move(ready_.front());
      ready_.pop_front();
      lk.unlock();
      if (r.wire) {
        std::lock_guard<std::mutex> mlk(metrics_mu_);
        ledger::delivered(metrics_);
      }
      r.fn();
      lk.lock();
      --inflight_;
      idle_cv_.notify_all();
      continue;
    }
    if (!schedule_.empty() && schedule_.begin()->first.first <= now_tp) {
      auto it = schedule_.begin();
      TimerEntry entry = std::move(it->second);
      if (entry.id != 0) timer_keys_.erase(entry.id);
      schedule_.erase(it);
      lk.unlock();
      entry.fn();
      lk.lock();
      // Plain events count toward idleness until their handler has run.
      if (entry.id == 0) --pending_events_;
      idle_cv_.notify_all();
      continue;
    }
    if (!schedule_.empty()) {
      // Copy the deadline out of the map node: cancel_timer may erase that
      // node (freeing the key) while this thread is blocked on it.
      const Clock::time_point deadline = schedule_.begin()->first.first;
      strand_cv_.wait_until(lk, deadline);
    } else {
      strand_cv_.wait(lk);
    }
  }
}

// --- Time and timers --------------------------------------------------------

Time SocketTransport::now() const {
  const auto elapsed = Clock::now() - start_;
  return static_cast<Time>(elapsed / common_.tick);
}

void SocketTransport::schedule_in(Time delay, Handler fn) {
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return;
    const ScheduleKey key{Clock::now() + common_.tick * delay, next_seq_++};
    schedule_.emplace(key, TimerEntry{0, std::move(fn)});
    ++pending_events_;
  }
  strand_cv_.notify_one();
}

Transport::TimerId SocketTransport::set_timer(Time delay, Handler fn) {
  TimerId id;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return 0;
    id = next_timer_++;
    const ScheduleKey key{Clock::now() + common_.tick * delay, next_seq_++};
    schedule_.emplace(key, TimerEntry{id, std::move(fn)});
    timer_keys_.emplace(id, key);
  }
  strand_cv_.notify_one();
  return id;
}

bool SocketTransport::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lk(strand_mu_);
  const auto it = timer_keys_.find(id);
  if (it == timer_keys_.end()) return false;
  schedule_.erase(it->second);
  timer_keys_.erase(it);
  return true;
}

// --- Accounting / control ---------------------------------------------------

void SocketTransport::record(const std::function<void(sim::Metrics&)>& fn) {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  fn(metrics_);
}

void SocketTransport::set_send_observer(SendObserver fn) {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  observer_ = std::move(fn);
}

void SocketTransport::set_peer_down_observer(PeerDownObserver fn) {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  peer_down_ = std::move(fn);
}

std::size_t SocketTransport::live_timer_count() const {
  std::lock_guard<std::mutex> lk(strand_mu_);
  return timer_keys_.size();
}

bool SocketTransport::drain_and_stop(std::chrono::milliseconds timeout) {
  const bool idle = wait_idle(timeout);
  stop();
  return idle;
}

bool SocketTransport::wait_idle(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(strand_mu_);
  return idle_cv_.wait_for(lk, timeout, [this] {
    return stopping_ ||
           (inflight_ == 0 && ready_.empty() && pending_events_ == 0);
  });
}

std::uint64_t SocketTransport::decode_errors() const {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  return decode_errors_;
}

void SocketTransport::drop_inbound(std::uint64_t n) {
  drop_inbound_.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace hkws::net
