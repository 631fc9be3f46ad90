#include "net/socket_transport.hpp"

#include <arpa/inet.h>

#include <algorithm>
#include <cstring>

#include "net/ledger.hpp"

namespace hkws::net {

namespace {

/// The transport whose dispatch strand is the current thread, if any.
thread_local const SocketTransport* t_strand_of = nullptr;

}  // namespace

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

bool SocketTransport::lookup_addr(EndpointId id, sockaddr_in* out) const {
  std::shared_lock<std::shared_mutex> lk(addrs_mu_);
  const auto it = addrs_.find(id);
  if (it == addrs_.end()) return false;
  *out = it->second;
  return true;
}

// --- The strand's ownership -------------------------------------------------

bool SocketTransport::owns_state() const {
  return t_strand_of == this || torn_down_.load(std::memory_order_acquire);
}

void SocketTransport::run_posted(const Handler& call) {
  bool done = false;
  {
    std::unique_lock<std::mutex> lk(strand_mu_);
    if (!stopping_) {
      ++inflight_;
      ready_.push_back(Ready{[&call] { call(); }, 0, &done});
      strand_cv_.notify_one();
    }
    idle_cv_.wait(lk, [&] {
      return done || torn_down_.load(std::memory_order_relaxed);
    });
  }
  // The runtime stopped before the strand got to the call: stop() has torn
  // it down, so this thread now acts directly.
  if (!done) call();
}

// --- Send (parked-handler mode) ---------------------------------------------

void SocketTransport::send(EndpointId from, EndpointId to, std::string kind,
                           std::size_t payload_bytes, Handler deliver) {
  if (post_to_strand([&] {
        send(from, to, std::move(kind), payload_bytes, std::move(deliver));
      }))
    return;
  if (from == to) {
    // Local call: no wire traffic, async delivery — the simulator's
    // contract, preserved so protocol code behaves identically.
    ledger::local(metrics_);
    enqueue_ready(Ready{std::move(deliver)});
    return;
  }
  if (!is_registered(to)) {
    ledger::unregistered(metrics_, kind);
    return;
  }

  EnvelopeMsg env;
  const std::optional<MsgKind> known = kind_of(kind);
  env.inner_kind = known.value_or(MsgKind::kOpaque);
  if (!known.has_value()) env.label = kind;
  const std::uint64_t msg_id = next_msg_++;
  env.msg_id = msg_id;
  env.from = from;
  env.to = to;
  env.declared_bytes = payload_bytes;
  env.pad = static_cast<std::uint32_t>(
      std::min<std::size_t>(payload_bytes, common_.max_pad));
  const std::vector<std::uint8_t> frame =
      encode_frame(MsgKind::kEnvelope, WireMessage{env});

  ledger::sent(metrics_, kind, payload_bytes, frame.size());
  const WireLoss loss = wire_send(frame, nullptr);
  if (loss) {
    // The wire swallowed the frame (connection death, a send after stop(),
    // or the backend's drop model). A dead connection is additionally a
    // positive liveness signal the failure detector can act on immediately.
    ledger::lost(metrics_, kind, *loss);
    if (*loss == ledger::Cause::kConn) report_peer_down(to);
  } else {
    // Park the handler until the strand sees the envelope come back (it
    // cannot before this returns: redemption runs on this thread). The
    // deadline bounds how long a frame the wire swallowed holds its slot.
    {
      std::lock_guard<std::mutex> lk(strand_mu_);
      ++inflight_;
    }
    parked_.emplace_hint(parked_.end(), msg_id,
                         ParkedEntry{std::move(deliver), kind,
                                     Clock::now() + common_.parked_ttl});
  }
  // Observe after the wire has decided the frame's fate, so SendRecord.lost
  // is truthful — a frame the connection swallowed is never reported
  // delivered.
  if (observer_) {
    const Time at = now();
    observer_(kind, SendRecord{at, from, to, payload_bytes, loss.has_value(),
                               at});
  }
}

// --- Send (cross-process payload mode) --------------------------------------

void SocketTransport::send_payload(EndpointId from, EndpointId to,
                                   MsgKind kind, const WireMessage& msg) {
  if (post_to_strand([&] { send_payload(from, to, kind, msg); })) return;
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
  env.msg_id = next_msg_++;
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
  if (loss == ledger::Cause::kConn) report_peer_down(to);
}

void SocketTransport::report_peer_down(EndpointId to) {
  {
    // At most one report per endpoint per registration: many frames can
    // hit the same dead wire.
    std::unique_lock<std::shared_mutex> lk(peers_mu_);
    if (down_reported_[to]) return;
    down_reported_[to] = true;
  }
  if (!peer_down_) return;
  // A later strand turn, not a call from inside send(): the consumer is
  // protocol code (FailureDetector) that must not run re-entrantly.
  schedule_in(0, [cb = peer_down_, to] { cb(to); });
}

void SocketTransport::enqueue_ready(Ready r) {
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return;  // the strand will never run it
    ++inflight_;
    ready_.push_back(std::move(r));
  }
  strand_cv_.notify_one();
}

// --- Inbound envelopes ------------------------------------------------------

void SocketTransport::on_envelope(EnvelopeMsg&& env) {
  // Test/fault hook: discard the next N inbound envelopes as if the frames
  // had died on the read side of the wire.
  std::uint64_t budget = drop_inbound_.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !drop_inbound_.compare_exchange_weak(budget, budget - 1,
                                              std::memory_order_relaxed)) {
  }
  if (budget > 0) return;

  if (env.payload.empty()) {
    enqueue_ready(Ready{{}, env.msg_id});
    return;
  }
  // Cross-process payload: decode the inner frame here, dispatch it to the
  // payload handler on the strand. The sender's process recorded its fate;
  // here it is remote traffic in.
  std::optional<DecodedFrame> inner =
      decode_frame(env.payload.data(), env.payload.size());
  if (!inner.has_value() || inner->kind != env.inner_kind) {
    note_decode_error();
    return;
  }
  enqueue_ready(Ready{[this, from = env.from, to = env.to, kind = inner->kind,
                       msg = std::move(inner->msg)] {
    if (!payload_handler_) {
      ledger::stray(metrics_);
      return;
    }
    ledger::remote_in(metrics_, kind_name(kind));
    payload_handler_(from, to, kind, msg);
  }});
}

std::uint64_t SocketTransport::redeem(std::uint64_t msg_id) {
  auto node = parked_.extract(msg_id);
  if (node.empty()) {
    // Unknown message id: a duplicate or stray frame, or one the sweep
    // already recorded lost. Count and drop.
    ledger::stray(metrics_);
    return 0;
  }
  ledger::delivered(metrics_);
  node.mapped().fn();
  return 1;
}

void SocketTransport::sweep_parked(Clock::time_point cutoff) {
  // The envelope never came back: the frame died on the wire. Attribute
  // like any other connection loss — but no peer-down report; a lost frame
  // is packet death, not positive evidence the destination process died.
  std::uint64_t n = 0;
  while (!parked_.empty() && parked_.begin()->second.deadline <= cutoff) {
    ledger::lost(metrics_, parked_.begin()->second.kind,
                 ledger::Cause::kConn);
    parked_.erase(parked_.begin());
    ++n;
  }
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    inflight_ -= n;
  }
  idle_cv_.notify_all();
}

void SocketTransport::finish_stop() {
  sweep_parked(Clock::time_point::max());
  std::deque<Ready> ready;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    ready.swap(ready_);
    inflight_ -= ready.size();
    torn_down_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  // Queued handlers are destroyed here, outside every lock. A returned
  // envelope among them was still parked, so the sweep above recorded it.
}

// --- Dispatch strand --------------------------------------------------------

void SocketTransport::dispatch_loop() {
  t_strand_of = this;
  std::unique_lock<std::mutex> lk(strand_mu_);
  while (!stopping_) {
    if (!ready_.empty()) {
      Ready r = std::move(ready_.front());
      ready_.pop_front();
      lk.unlock();
      std::uint64_t released = 1;  // the entry's own slot
      if (r.fn)
        r.fn();
      else
        released += redeem(r.msg_id);
      lk.lock();
      inflight_ -= released;
      if (r.done != nullptr) *r.done = true;
      idle_cv_.notify_all();
      continue;
    }
    const Clock::time_point now_tp = Clock::now();
    // parked_ belongs to this thread; strand_mu_ is held only for the
    // queues around it.
    if (!parked_.empty() && parked_.begin()->second.deadline <= now_tp) {
      lk.unlock();
      sweep_parked(now_tp);
      lk.lock();
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
    // Sleep until the next timer or parked deadline, whichever is first.
    // (Copy the deadline out of the map node: cancel_timer may erase that
    // node while this thread is blocked.)
    Clock::time_point wake = Clock::time_point::max();
    if (!schedule_.empty()) wake = schedule_.begin()->first.first;
    if (!parked_.empty())
      wake = std::min(wake, parked_.begin()->second.deadline);
    if (wake == Clock::time_point::max())
      strand_cv_.wait(lk);
    else
      strand_cv_.wait_until(lk, wake);
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

void SocketTransport::set_payload_handler(PayloadHandler fn) {
  if (post_to_strand([&] { set_payload_handler(std::move(fn)); })) return;
  payload_handler_ = std::move(fn);
}

void SocketTransport::set_send_observer(SendObserver fn) {
  if (post_to_strand([&] { set_send_observer(std::move(fn)); })) return;
  observer_ = std::move(fn);
}

void SocketTransport::set_peer_down_observer(PeerDownObserver fn) {
  if (post_to_strand([&] { set_peer_down_observer(std::move(fn)); })) return;
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

void SocketTransport::drop_inbound(std::uint64_t n) {
  drop_inbound_.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace hkws::net
