// The TCP Transport backend: the same protocol state machines that run on
// the simulator, carried over loopback TCP with real serialization, real
// syscalls, and real threads.
//
// Architecture (per instance):
//
//   the strand ──send()──► envelope codec ──write──► loopback TCP ─────┐
//                                                                      │
//   io thread: poll() over the listen socket + accepted connections ◄──┘
//     reads byte streams, reassembles frames (net/wire.hpp) and hands each
//     envelope to the strand — decoding the inner message first for
//     frames that carry a payload
//
//   dispatch thread ("the strand"): redeems parked handlers and runs
//     delivered handlers, due timers and sends posted from other threads,
//     one at a time, in arrival/deadline order
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
// Threading, accounting parity and time semantics are the SocketTransport
// base contract: after set-up only the strand mutates, and other threads
// are posted there. The outbound sockets are strand state, so they need no
// locks. This class owns only the sockets: the listen socket + one
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

  /// Test/fault hook: shuts down every outbound wire connection (the
  /// self-wire and remote connections), so each subsequent wire send fails
  /// deterministically (and is accounted net.dropped.conn,
  /// SendRecord.lost = true). Frames already written still drain to the
  /// reader — the cut is clean at a frame boundary, never mid-frame.
  void sever_wire();

 private:
  WireLoss wire_send(const std::vector<std::uint8_t>& frame,
                     const sockaddr_in* remote) override;

  void io_loop();
  /// Parses complete frames out of a connection's read buffer; returns
  /// false when the connection must be dropped (decode error).
  bool drain_buffer(std::vector<std::uint8_t>& buf);
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
