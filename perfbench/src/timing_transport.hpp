// Span timing for the benchmark's traced runs, kept entirely outside the
// library: a per-thread span stack that charges wall time to layers, and a
// net::Transport decorator (built like net::FaultTransport) that opens a
// span around every send(), every timer call, and every delivered handler.
//
// A span's self time is its duration minus the durations of the spans
// nested inside it. A handler that sends two messages is therefore charged
// only for its own work; the sends land on Layer::kSend. Layers:
//
//   kEngine  QueryEngine::submit calls made by the benchmark's driver
//   kIndex   kws.* handlers, and service calls the benchmark makes
//            (search / publish / withdraw issue work at the caller)
//   kDht     dht.* and dolr.* handlers, and routing hops of any kind: a
//            handler whose only action is to forward one message of its
//            own kind (what the overlay's route step does at a hop that is
//            not the key's owner; routed kws.* messages keep their label)
//   kOther   handlers of any other kind and timer / event callbacks
//   kSend    Transport::send (simulator: latency draw + event-queue insert;
//            TCP: envelope encode + socket write)
//   kTimer   set_timer / schedule_in / cancel_timer calls
//   kQueue   EventQueue::run() time not inside any other span
//   kBench   the benchmark's own callbacks (answer digests, next issue)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

using Nanos = std::uint64_t;

/// Monotonic wall clock in nanoseconds.
Nanos now_ns();

enum class Layer : std::uint8_t {
  kEngine,
  kIndex,
  kDht,
  kOther,
  kSend,
  kTimer,
  kQueue,
  kBench,
  kCount,
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Layer of a handler by its message kind label.
Layer layer_of_kind(const std::string& kind);

/// Per-layer self time accumulated from spans on any thread.
class LayerClock {
 public:
  /// RAII span. A null clock makes it a no-op, so call sites can be
  /// written once and switched off for untraced runs.
  class Span {
   public:
    Span(LayerClock* clock, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Charges this span to another layer when it ends.
    void relabel(Layer layer) { layer_ = layer; }

   private:
    LayerClock* clock_;
    Layer layer_;
    Nanos start_ = 0;
    Nanos child_ = 0;
    Span* parent_ = nullptr;
  };

  Nanos self_ns(Layer layer) const;
  std::uint64_t spans(Layer layer) const;
  /// Sum of self time over every layer.
  Nanos total_ns() const;
  void reset();

 private:
  void charge(Layer layer, Nanos self);

  std::array<std::atomic<Nanos>, kLayerCount> self_{};
  std::array<std::atomic<std::uint64_t>, kLayerCount> spans_{};
};

/// Transport decorator that times the layers above and below it. All
/// forwarding is one-to-one: no message, event or timer is added, removed
/// or reordered, so a simulator run is event-for-event the same with or
/// without it (the perfbench test pins that).
class TimingTransport final : public hkws::net::Transport {
 public:
  using EndpointId = hkws::net::EndpointId;

  /// One wire send, kept for the codec replay.
  struct SendSample {
    std::string kind;
    EndpointId from = 0;
    EndpointId to = 0;
    std::size_t bytes = 0;
  };

  TimingTransport(hkws::net::Transport& inner, LayerClock& clock);

  /// Wire sends observed (from != to).
  std::uint64_t wire_sends() const;
  /// Sum of send() durations over wire sends.
  Nanos wire_send_ns() const;
  /// Sum of delivered-handler durations, nested spans included (the time
  /// the dispatch strand was busy running protocol code).
  Nanos handler_busy_ns() const;
  /// send() -> handler start, one sample per delivered wire message
  /// (capped at kMaxSamples, first come).
  std::vector<Nanos> deliver_waits() const;
  /// The first kMaxSamples wire sends, for the codec replay.
  std::vector<SendSample> send_samples() const;
  void reset_stats();

  static constexpr std::size_t kMaxSamples = 1 << 18;

  // --- Transport interface (decorated) -----------------------------------
  void register_endpoint(EndpointId id) override;
  void unregister_endpoint(EndpointId id) override;
  bool is_registered(EndpointId id) const override;
  void send(EndpointId from, EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override;
  bool set_peer_address(EndpointId id,
                        const hkws::net::PeerAddr& addr) override;
  bool has_peer_address(EndpointId id) const override;
  void set_payload_handler(PayloadHandler fn) override;
  void send_payload(EndpointId from, EndpointId to, hkws::net::MsgKind kind,
                    const hkws::net::WireMessage& msg) override;
  hkws::net::Time now() const override;
  void schedule_in(hkws::net::Time delay, Handler fn) override;
  TimerId set_timer(hkws::net::Time delay, Handler fn) override;
  bool cancel_timer(TimerId id) override;
  hkws::sim::Metrics& metrics() override;
  const hkws::sim::Metrics& metrics() const override;
  void set_send_observer(SendObserver fn) override;

 private:
  Handler timed_callback(Handler fn);

  hkws::net::Transport& inner_;
  LayerClock& clock_;
  std::atomic<std::uint64_t> wire_sends_{0};
  std::atomic<Nanos> wire_send_ns_{0};
  std::atomic<Nanos> handler_busy_ns_{0};
  mutable std::mutex samples_mu_;
  std::vector<Nanos> waits_;
  std::vector<SendSample> sends_;
};

}  // namespace perfbench
