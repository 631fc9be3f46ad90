// The TCP Transport backend: the same protocol state machines that run on
// the simulator, carried over loopback TCP with real serialization, real
// syscalls, and real threads.
//
// Architecture (per instance):
//
//   the strand ──send()──► envelope codec ──► outbox (one per destination)
//                                                │ flush: one send() of all
//                                                ▼ queued frames
//                                        loopback TCP ─────────────────┐
//                                                                      │
//   io thread: poll() over the listen socket + accepted connections ◄──┘
//     reads byte streams, reassembles frames (net/wire.hpp), decodes every
//     complete frame of a read — the inner message too, for frames that
//     carry a payload — and hands them to the strand in one batch
//
//   dispatch thread ("the strand"): in turns, redeems parked handlers and
//     runs delivered handlers and sends posted from other threads, in
//     arrival order, then flushes the outboxes; between turns it flushes
//     again and runs due timers in deadline order
//
// Two kinds of traffic share the wire (see net/socket_transport.hpp and
// docs/PROTOCOL.md "Addressing & delivery"):
//  * closure sends (send()) park the delivery handler and loop an
//    addressed envelope through this instance's own listen socket — a real
//    kernel socket even though sender and receiver share an address space;
//  * payload sends (send_payload()) to endpoints in the peer-address table
//    serialize the real message through the wire codec and write it on a
//    per-address outbound connection to the owning process, whose io
//    thread decodes it and whose strand dispatches it.
//
// Threading, accounting parity, batching and time semantics are the
// SocketTransport base contract: after set-up only the strand mutates, and
// other threads are posted there; a flush records each frame's fate, and a
// frame the socket did not accept whole is a connection loss. The outbound
// sockets are strand state, so they need no locks. This class owns only the sockets: the listen socket + one
// loopback self-wire connection, lazily-connected per-address remote
// connections, and the io thread that feeds frames back to the base.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/socket_transport.hpp"

namespace hkws::net {

class TcpTransport final : public SocketTransport {
 public:
  struct Config {
    /// Wall-clock duration of one transport tick. Protocol timeout
    /// constants are written in ticks (sim convention: ~1ms); the default
    /// compresses them 10x so loss-recovery tests stay fast.
    std::chrono::microseconds tick{100};
    /// Connection establishment: attempts and exponential backoff bounds.
    int connect_attempts = 20;
    std::chrono::milliseconds connect_backoff{2};
    std::chrono::milliseconds connect_backoff_cap{100};
    /// Cap on per-frame padding bytes (real serialization cost tracks the
    /// declared payload size up to this bound).
    std::uint32_t max_pad = 64 * 1024;
    /// Deadline for parked delivery handlers (see CommonConfig::parked_ttl).
    std::chrono::milliseconds parked_ttl{3000};
    /// Seed for the backoff jitter RNG (determinism discipline: every
    /// random draw in the runtime is seeded).
    std::uint64_t seed = 1;
  };

  explicit TcpTransport(Config cfg);
  TcpTransport() : TcpTransport(Config{}) {}
  ~TcpTransport() override;

  // --- Runtime control ----------------------------------------------------

  /// The loopback port this instance listens on (ephemeral, bound at
  /// construction). Other processes route payload frames here once it is
  /// in their peer-address tables.
  std::uint16_t port() const noexcept { return port_; }

  const Config& config() const noexcept { return cfg_; }

  void stop() override;

  /// Test/fault hook: flushes the outboxes, then shuts down every outbound
  /// wire connection (the self-wire and remote connections), so each
  /// frame flushed later fails deterministically (and is accounted
  /// net.dropped.conn, SendRecord.lost = true). Frames queued or written
  /// before the call still drain to the reader — the cut is clean at a
  /// frame boundary, never mid-frame.
  void sever_wire();

 private:
  void wire_flush(Outbox& box) override;

  void io_loop();
  /// Decodes the complete frames at the front of a connection's byte
  /// stream into `batch`; returns the bytes they took, or nullopt when the
  /// connection must be dropped (decode error).
  std::optional<std::size_t> decode_stream(const std::uint8_t* data,
                                           std::size_t len,
                                           std::vector<Ready>& batch);
  int connect_loopback();
  int connect_to(const sockaddr_in& addr);
  void close_fd(int& fd);

  Config cfg_;

  // Sockets. listen_fd_ accepts; out_fd_ is the self-wire client end that
  // sends write to; accepted connections live in the io thread only.
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< unblocks the io thread's poll on stop
  std::uint16_t port_ = 0;
  int out_fd_ = -1;

  // Outbound connections to other processes, keyed by (ip, port): one
  // ordered stream per address, so frames to the same process arrive FIFO
  // (publish-before-query ordering for the split overlay).
  std::map<std::uint64_t, int> remotes_;

  Rng backoff_rng_;

  std::thread io_thread_;
};

}  // namespace hkws::net
