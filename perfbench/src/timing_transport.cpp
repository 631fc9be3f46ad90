#include "timing_transport.hpp"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {
// Innermost open span of this thread (spans of one thread nest strictly).
thread_local LayerClock::Span* tls_top = nullptr;

// Sends made by the delivered handler running on this thread, to tell a
// routing hop (one forward of the handler's own kind) from protocol work.
struct HandlerFrame {
  const std::string* kind = nullptr;
  int sends = 0;
  int same_kind = 0;
};
thread_local HandlerFrame* tls_handler = nullptr;
}  // namespace

Nanos now_ns() {
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Layer layer_of_kind(const std::string& kind) {
  if (kind.starts_with("kws.")) return Layer::kIndex;
  if (kind.starts_with("dht.") || kind.starts_with("dolr.")) return Layer::kDht;
  return Layer::kOther;
}

// --- LayerClock ----------------------------------------------------------------

LayerClock::Span::Span(LayerClock* clock, Layer layer)
    : clock_(clock), layer_(layer) {
  if (clock_ == nullptr) return;
  parent_ = tls_top;
  tls_top = this;
  start_ = now_ns();
}

LayerClock::Span::~Span() {
  if (clock_ == nullptr) return;
  const Nanos dur = now_ns() - start_;
  clock_->charge(layer_, dur > child_ ? dur - child_ : 0);
  if (parent_ != nullptr) parent_->child_ += dur;
  tls_top = parent_;
}

void LayerClock::charge(Layer layer, Nanos self) {
  const auto i = static_cast<std::size_t>(layer);
  self_[i].fetch_add(self, std::memory_order_relaxed);
  spans_[i].fetch_add(1, std::memory_order_relaxed);
}

Nanos LayerClock::self_ns(Layer layer) const {
  return self_[static_cast<std::size_t>(layer)].load(std::memory_order_relaxed);
}

std::uint64_t LayerClock::spans(Layer layer) const {
  return spans_[static_cast<std::size_t>(layer)].load(
      std::memory_order_relaxed);
}

Nanos LayerClock::total_ns() const {
  Nanos sum = 0;
  for (const auto& s : self_) sum += s.load(std::memory_order_relaxed);
  return sum;
}

void LayerClock::reset() {
  for (auto& s : self_) s.store(0, std::memory_order_relaxed);
  for (auto& s : spans_) s.store(0, std::memory_order_relaxed);
}

// --- TimingTransport -------------------------------------------------------------

TimingTransport::TimingTransport(hkws::net::Transport& inner,
                                 LayerClock& clock)
    : inner_(inner), clock_(clock) {}

std::uint64_t TimingTransport::wire_sends() const {
  return wire_sends_.load(std::memory_order_relaxed);
}

Nanos TimingTransport::wire_send_ns() const {
  return wire_send_ns_.load(std::memory_order_relaxed);
}

Nanos TimingTransport::handler_busy_ns() const {
  return handler_busy_ns_.load(std::memory_order_relaxed);
}

std::vector<Nanos> TimingTransport::deliver_waits() const {
  std::lock_guard<std::mutex> lk(samples_mu_);
  return waits_;
}

std::vector<TimingTransport::SendSample> TimingTransport::send_samples()
    const {
  std::lock_guard<std::mutex> lk(samples_mu_);
  return sends_;
}

void TimingTransport::reset_stats() {
  wire_sends_.store(0, std::memory_order_relaxed);
  wire_send_ns_.store(0, std::memory_order_relaxed);
  handler_busy_ns_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(samples_mu_);
  waits_.clear();
  sends_.clear();
}

void TimingTransport::register_endpoint(EndpointId id) {
  inner_.register_endpoint(id);
}

void TimingTransport::unregister_endpoint(EndpointId id) {
  inner_.unregister_endpoint(id);
}

bool TimingTransport::is_registered(EndpointId id) const {
  return inner_.is_registered(id);
}

void TimingTransport::send(EndpointId from, EndpointId to, std::string kind,
                           std::size_t payload_bytes, Handler deliver) {
  const bool wire = from != to;
  const Layer layer = layer_of_kind(kind);
  if (wire) {
    std::lock_guard<std::mutex> lk(samples_mu_);
    if (sends_.size() < kMaxSamples)
      sends_.push_back(SendSample{kind, from, to, payload_bytes});
  }
  if (tls_handler != nullptr) {
    ++tls_handler->sends;
    if (*tls_handler->kind == kind) ++tls_handler->same_kind;
  }
  const Nanos sent_at = now_ns();
  Handler timed = [this, layer, wire, sent_at, kind,
                   deliver = std::move(deliver)]() {
    const Nanos start = now_ns();
    if (wire) {
      std::lock_guard<std::mutex> lk(samples_mu_);
      if (waits_.size() < kMaxSamples) waits_.push_back(start - sent_at);
    }
    {
      LayerClock::Span span(&clock_, layer);
      HandlerFrame frame{&kind};
      HandlerFrame* outer = std::exchange(tls_handler, &frame);
      deliver();
      tls_handler = outer;
      if (frame.sends == 1 && frame.same_kind == 1) span.relabel(Layer::kDht);
    }
    handler_busy_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  };
  {
    LayerClock::Span span(&clock_, Layer::kSend);
    inner_.send(from, to, std::move(kind), payload_bytes, std::move(timed));
  }
  if (wire) {
    wire_sends_.fetch_add(1, std::memory_order_relaxed);
    wire_send_ns_.fetch_add(now_ns() - sent_at, std::memory_order_relaxed);
  }
}

bool TimingTransport::set_peer_address(EndpointId id,
                                       const hkws::net::PeerAddr& addr) {
  return inner_.set_peer_address(id, addr);
}

bool TimingTransport::has_peer_address(EndpointId id) const {
  return inner_.has_peer_address(id);
}

void TimingTransport::set_payload_handler(PayloadHandler fn) {
  inner_.set_payload_handler(std::move(fn));
}

void TimingTransport::send_payload(EndpointId from, EndpointId to,
                                   hkws::net::MsgKind kind,
                                   const hkws::net::WireMessage& msg) {
  LayerClock::Span span(&clock_, Layer::kSend);
  inner_.send_payload(from, to, kind, msg);
}

hkws::net::Time TimingTransport::now() const { return inner_.now(); }

TimingTransport::Handler TimingTransport::timed_callback(Handler fn) {
  return [this, fn = std::move(fn)]() {
    const Nanos start = now_ns();
    {
      LayerClock::Span span(&clock_, Layer::kOther);
      fn();
    }
    handler_busy_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  };
}

void TimingTransport::schedule_in(hkws::net::Time delay, Handler fn) {
  LayerClock::Span span(&clock_, Layer::kTimer);
  inner_.schedule_in(delay, timed_callback(std::move(fn)));
}

TimingTransport::TimerId TimingTransport::set_timer(hkws::net::Time delay,
                                                    Handler fn) {
  LayerClock::Span span(&clock_, Layer::kTimer);
  return inner_.set_timer(delay, timed_callback(std::move(fn)));
}

bool TimingTransport::cancel_timer(TimerId id) {
  LayerClock::Span span(&clock_, Layer::kTimer);
  return inner_.cancel_timer(id);
}

hkws::sim::Metrics& TimingTransport::metrics() { return inner_.metrics(); }

const hkws::sim::Metrics& TimingTransport::metrics() const {
  return inner_.metrics();
}

void TimingTransport::set_send_observer(SendObserver fn) {
  inner_.set_send_observer(std::move(fn));
}

}  // namespace perfbench
