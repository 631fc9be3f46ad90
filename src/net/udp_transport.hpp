// The UDP Transport backend: every envelope is one datagram, and the
// medium genuinely loses packets — which is the point. The loss machinery
// the protocol layers grew against the simulator's drop models (step
// timeouts, retransmission, exponential backoff, failover) runs here
// against a wire where loss is the transport's native failure mode, not a
// decorator's injection.
//
// Architecture (per instance): one loopback UDP socket, bound ephemeral.
// Self-wire frames (parked-handler sends) and cross-process payload frames
// (peer-address table) wait in the base's per-destination outboxes; a
// flush sends each queued frame as its own datagram via sendto() on the
// strand, so the drop model still decides frame by frame. The io thread
// recvfrom()s whole envelopes — no stream reassembly, datagram boundaries
// are frame boundaries — and hands every datagram waiting at a wake-up to
// the strand in one batch, exactly like the TCP backend. Threading is the
// SocketTransport rule: after set-up only the strand mutates (the socket's
// send side and the drop-model RNG included), and other threads are posted
// there; set_drop_rate() alone writes an atomic from any thread.
//
// Loss semantics (the ledger's lost fate, docs/ROBUSTNESS.md):
//  * the seeded drop model discards a frame when its outbox is flushed —
//    lost to a fault, like a sim drop model, with no peer-down report
//    (packet loss is not peer death);
//  * a frame the kernel or the read side swallows (buffer overrun,
//    drop_inbound), or one larger than a datagram (kMaxDatagram), is lost
//    to the wire: the flush or the parked-handler sweep records it.
// Retransmission above (OverlayIndex / PeerSlice step timers) is what
// masks the loss from the application.
//
// Unlike TCP there is no per-destination ordering guarantee; protocol
// layers that need publish-before-query ordering must settle between
// phases (index::PeerSlice::publish does).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/socket_transport.hpp"

namespace hkws::net {

class UdpTransport final : public SocketTransport {
 public:
  /// Largest envelope frame one datagram carries (conservative loopback
  /// UDP payload bound).
  static constexpr std::size_t kMaxDatagram = 60 * 1024;

  struct Config {
    /// Wall-clock duration of one transport tick (see TcpTransport).
    std::chrono::microseconds tick{100};
    /// Cap on per-frame padding bytes. Capped harder than TCP so padded
    /// envelopes always fit one datagram.
    std::uint32_t max_pad = 32 * 1024;
    /// Deadline for parked delivery handlers (see CommonConfig::parked_ttl).
    std::chrono::milliseconds parked_ttl{3000};
    /// Probability in [0,1] that the drop model discards an outbound
    /// frame. Runtime-adjustable via set_drop_rate() so tests arm loss
    /// only after a lossless publish phase.
    double drop_rate = 0.0;
    /// Seed for the drop-model RNG.
    std::uint64_t seed = 1;
  };

  explicit UdpTransport(Config cfg);
  UdpTransport() : UdpTransport(Config{}) {}
  ~UdpTransport() override;

  /// The loopback port this instance's socket is bound to.
  std::uint16_t port() const noexcept { return port_; }

  const Config& config() const noexcept { return cfg_; }

  /// Re-arms the seeded drop model (0 disarms). Applies to frames flushed
  /// after the call (a send from another thread is flushed before it
  /// returns).
  void set_drop_rate(double rate);

  void stop() override;

 private:
  /// Most datagrams one read hands to the strand at once.
  static constexpr std::size_t kMaxBatch = 256;

  void wire_flush(Outbox& box) override;
  void io_loop();

  Config cfg_;

  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  sockaddr_in self_addr_{};

  Rng drop_rng_;  ///< drawn by wire_flush, on the strand
  std::atomic<std::uint64_t> drop_ppm_{0};  ///< drop_rate in parts-per-million

  std::thread io_thread_;
};

}  // namespace hkws::net
