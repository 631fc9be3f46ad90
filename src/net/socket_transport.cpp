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

// --- Outboxes ---------------------------------------------------------------

std::uint64_t SocketTransport::addr_key(const sockaddr_in& sa) {
  return (static_cast<std::uint64_t>(sa.sin_addr.s_addr) << 16) |
         ntohs(sa.sin_port);
}

std::size_t SocketTransport::encode_envelope(Outbox& box) {
  const std::size_t begin = box.bytes.size();
  if (!encode_frame_into(MsgKind::kEnvelope, envelope_, box.bytes)) return 0;
  return box.bytes.size() - begin;
}

void SocketTransport::queue_frame(Outbox& box, const QueuedFrame& f) {
  if (box.frames.empty()) dirty_.push_back(&box);
  box.frames.push_back(f);
  ++slots_;  // held until the flush records the frame's fate
  if (box.bytes.size() > kFlushBytes) flush(box);
}

void SocketTransport::flush_outboxes() {
  // flush() never queues a frame (peer-down reports go out as events), so
  // dirty_ is stable while it runs.
  for (Outbox* box : dirty_) flush(*box);
  dirty_.clear();
}

void SocketTransport::flush_if_detached() {
  if (t_strand_of == this) return;
  flush_outboxes();
  std::lock_guard<std::mutex> lk(strand_mu_);
  settle();
}

void SocketTransport::flush(Outbox& box) {
  if (box.frames.empty()) return;
  wire_flush(box);
  const Time at = now();
  bool looped = false;  // a frame is on its way back through the self-wire
  for (const QueuedFrame& f : box.frames) {
    if (f.msg_id != 0 && !f.loss) {
      if (!looped) loop_lo_ = f.msg_id;
      loop_hi_ = f.msg_id;
      looped = true;
    }
    if (f.msg_id == 0) {
      // A cross-process message closes at the sender as soon as the wire
      // has accepted or refused its frame (the receiver records only
      // remote_in).
      const std::string kind = kind_name(f.kind);
      if (f.loss)
        ledger::lost(metrics_, kind, *f.loss);
      else
        ledger::delivered(metrics_);
      --slots_;
      if (observer_)
        observer_(kind, SendRecord{at, f.from, f.to, f.bytes,
                                   f.loss.has_value(), at});
    } else {
      // Parked before it was queued, and its envelope cannot have come
      // back before this write: the entry is here. An accepted frame
      // keeps its slot while parked.
      const auto it = parked_.find(f.msg_id);
      const std::string& kind = it->second.kind;
      if (f.loss) ledger::lost(metrics_, kind, *f.loss);
      if (observer_)
        observer_(kind, SendRecord{at, f.from, f.to, f.bytes,
                                   f.loss.has_value(), at});
      if (f.loss) {
        parked_.erase(it);
        --slots_;
      }
    }
    // A dead connection is a positive liveness signal the failure
    // detector can act on at once; a drop model's loss is not.
    if (f.loss == ledger::Cause::kConn) report_peer_down(f.to);
  }
  if (looped) returns_due_ = Clock::now() + common_.tick * kLoopWaitTicks;
  box.bytes.clear();
  box.frames.clear();
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

  EnvelopeMsg& env = std::get<EnvelopeMsg>(envelope_);
  const std::optional<MsgKind> known = kind_of(kind);
  env.inner_kind = known.value_or(MsgKind::kOpaque);
  if (known.has_value())
    env.label.clear();
  else
    env.label = kind;
  const std::uint64_t msg_id = next_msg_++;
  env.msg_id = msg_id;
  env.from = from;
  env.to = to;
  env.declared_bytes = payload_bytes;
  env.payload.clear();
  env.pad = static_cast<std::uint32_t>(
      std::min<std::size_t>(payload_bytes, common_.max_pad));
  const std::size_t size = encode_envelope(self_box_);
  if (size == 0) return;  // cannot happen: a padded envelope always fits

  ledger::sent(metrics_, kind, payload_bytes, size);
  // Park the handler until the strand sees the envelope come back (it
  // cannot before the flush). The deadline bounds how long a frame the
  // wire swallowed holds its slot.
  parked_.emplace_hint(parked_.end(), msg_id,
                       ParkedEntry{std::move(deliver), std::move(kind),
                                   Clock::now() + common_.parked_ttl});
  queue_frame(self_box_, QueuedFrame{self_box_.bytes.size(), std::nullopt,
                                     msg_id, MsgKind::kOpaque, from, to,
                                     payload_bytes});
  flush_if_detached();
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
  EnvelopeMsg& env = std::get<EnvelopeMsg>(envelope_);
  env.payload.clear();
  if (!encode_frame_into(kind, msg, env.payload))
    return;  // layout mismatch: programming error upstream
  const std::size_t declared = env.payload.size();
  env.inner_kind = kind;
  env.label.clear();
  env.msg_id = next_msg_++;
  env.from = from;
  env.to = to;
  env.declared_bytes = declared;
  env.pad = 0;  // the payload itself is the serialization cost

  auto [it, added] = remote_boxes_.try_emplace(addr_key(remote));
  Outbox& box = it->second;
  if (added) {
    box.remote = true;
    box.addr = remote;
  }
  const std::size_t size = encode_envelope(box);
  if (size == 0) return;  // an inner frame at the size limit
  ledger::sent(metrics_, kind_name(kind), declared, size);
  ledger::remote_out(metrics_);
  queue_frame(box, QueuedFrame{box.bytes.size(), std::nullopt, 0, kind, from,
                               to, declared});
  flush_if_detached();
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

bool SocketTransport::decode_inbound(const std::uint8_t* data,
                                     std::size_t len,
                                     std::vector<Ready>& batch) {
  std::optional<DecodedFrame> frame = decode_frame(data, len);
  if (!frame.has_value() || frame->kind != MsgKind::kEnvelope) {
    note_decode_error();
    return false;
  }
  EnvelopeMsg& env = std::get<EnvelopeMsg>(frame->msg);
  // Test/fault hook: discard the next N inbound envelopes as if the frames
  // had died on the read side of the wire.
  std::uint64_t budget = drop_inbound_.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !drop_inbound_.compare_exchange_weak(budget, budget - 1,
                                              std::memory_order_relaxed)) {
  }
  if (budget > 0) return true;

  if (env.payload.empty()) {
    batch.push_back(Ready{{}, env.msg_id});
    return true;
  }
  // Cross-process payload: decode the inner frame here, dispatch it to the
  // payload handler on the strand. The sender's process recorded its fate;
  // here it is remote traffic in.
  std::optional<DecodedFrame> inner =
      decode_frame(env.payload.data(), env.payload.size());
  if (!inner.has_value() || inner->kind != env.inner_kind) {
    note_decode_error();
    return true;  // the envelope itself was sound: the stream goes on
  }
  batch.push_back(Ready{[this, from = env.from, to = env.to,
                         kind = inner->kind, msg = std::move(inner->msg)] {
    if (!payload_handler_) {
      ledger::stray(metrics_);
      return;
    }
    ledger::remote_in(metrics_, kind_name(kind));
    payload_handler_(from, to, kind, msg);
  }});
  return true;
}

void SocketTransport::hand_off(std::vector<Ready>& batch) {
  if (batch.empty()) return;
  bool taken = false;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (!stopping_) {  // otherwise the strand will never run them
      inflight_ += batch.size();
      if (ready_.empty()) {
        ready_.swap(batch);
      } else {
        for (Ready& r : batch) ready_.push_back(std::move(r));
      }
      taken = true;
    }
  }
  batch.clear();  // handlers of a stopped runtime die outside the lock
  if (taken) strand_cv_.notify_one();
}

void SocketTransport::redeem(std::uint64_t msg_id) {
  auto node = parked_.extract(msg_id);
  if (node.empty()) {
    // Unknown message id: a duplicate or stray frame, or one the sweep
    // already recorded lost. Count and drop.
    ledger::stray(metrics_);
    return;
  }
  ledger::delivered(metrics_);
  --slots_;
  node.mapped().fn();
}

void SocketTransport::sweep_parked(Clock::time_point cutoff) {
  // The envelope never came back: the frame died on the wire. Attribute
  // like any other connection loss — but no peer-down report; a lost frame
  // is packet death, not positive evidence the destination process died.
  while (!parked_.empty() && parked_.begin()->second.deadline <= cutoff) {
    ledger::lost(metrics_, parked_.begin()->second.kind,
                 ledger::Cause::kConn);
    parked_.erase(parked_.begin());
    --slots_;
  }
}

void SocketTransport::finish_stop() {
  sweep_parked(Clock::time_point::max());
  std::vector<Ready> ready;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    settle();
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
  std::vector<Ready> turn;
  std::vector<bool*> posted;
  std::unique_lock<std::mutex> lk(strand_mu_);
  while (!stopping_) {
    if (!ready_.empty()) {
      // One turn: every entry queued so far, then one flush, so the frames
      // the turn sends leave in one write per destination.
      turn.swap(ready_);
      lk.unlock();
      Clock::time_point flushed = Clock::now();
      for (Ready& r : turn) {
        if (stopping()) break;  // stop() drops queued work
        if (r.fn)
          r.fn();
        else
          redeem(r.msg_id);
        if (r.done != nullptr) posted.push_back(r.done);
        // A long turn flushes every tick. Protocol timeouts are counted in
        // ticks, and a reply held back for the rest of a long turn would
        // reach its sender only after the sender's timer had fired.
        const Clock::time_point now_tp = Clock::now();
        if (now_tp - flushed >= common_.tick) {
          flush_outboxes();
          flushed = now_tp;
        }
      }
      flush_outboxes();
      const std::size_t ran = turn.size();
      turn.clear();  // handlers die outside the lock
      lk.lock();
      inflight_ -= ran;  // each entry's own slot
      settle();
      for (bool* done : posted) *done = true;
      if (!posted.empty() || idle()) idle_cv_.notify_all();
      posted.clear();
      continue;
    }
    const Clock::time_point now_tp = Clock::now();
    // parked_ belongs to this thread; strand_mu_ is held only for the
    // queues around it.
    if (!parked_.empty() && parked_.begin()->second.deadline <= now_tp) {
      lk.unlock();
      sweep_parked(now_tp);
      lk.lock();
      settle();
      if (idle()) idle_cv_.notify_all();
      continue;
    }
    if (!schedule_.empty() && schedule_.begin()->first.first <= now_tp) {
      if (schedule_.begin()->second.id != 0 && now_tp < returns_due_ &&
          looping()) {
        // The last flush looped frames through the self-wire and they are
        // not back yet; a due timer (a guard: ack or step timeout) may be
        // waiting for a reply among them, which would have been processed
        // first had it been written when it was sent. Wait for them, or
        // for kLoopWaitTicks if one was lost. Plain events are work, not
        // guards, and run at once.
        strand_cv_.wait_until(lk, returns_due_);
        continue;
      }
      auto it = schedule_.begin();
      TimerEntry entry = std::move(it->second);
      if (entry.id != 0) timer_keys_.erase(entry.id);
      schedule_.erase(it);
      lk.unlock();
      entry.fn();
      entry.fn = nullptr;  // the handler dies outside the lock
      // A timer's frames go out before anything else runs (its heartbeats
      // and retransmissions must not wait behind the next turn).
      flush_outboxes();
      lk.lock();
      settle();
      // Plain events count toward idleness until their handler has run.
      if (entry.id == 0) --pending_events_;
      if (idle()) idle_cv_.notify_all();
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
