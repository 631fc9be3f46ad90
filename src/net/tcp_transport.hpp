// The TCP Transport backend: the same protocol state machines that run on
// the simulator, carried over loopback TCP with real serialization, real
// syscalls, and real threads.
//
// Architecture (per instance):
//
//   caller threads ──send()──► envelope codec ──write──► loopback TCP ─┐
//                                                                      │
//   io thread: poll() over the listen socket + accepted connections ◄──┘
//     reads byte streams, reassembles frames (net/wire.hpp), redeems the
//     parked delivery handler by message id — or, for frames carrying a
//     payload, decodes the inner message — and enqueues for dispatch
//
//   dispatch thread ("the strand"): executes delivered handlers and due
//     timers one at a time, in arrival/deadline order
//
// Two kinds of traffic share the wire (see net/socket_transport.hpp and
// docs/PROTOCOL.md "Addressing & delivery"):
//  * closure sends (send()) park the delivery handler and loop an
//    addressed envelope through this instance's own listen socket — a real
//    kernel socket even though sender and receiver share an address space;
//  * payload sends (send_payload()) to endpoints in the peer-address table
//    serialize the real message through the wire codec and write it on a
//    per-address outbound connection to the owning process, whose io
//    thread decodes and dispatches it on its own strand.
//
// Threading contract, accounting parity, and time semantics are the
// SocketTransport base contract. This class owns only the sockets: the
// listen socket + self-wire lanes, lazily-connected per-address remote
// connections, and the io thread that feeds frames back to the base.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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
    /// Parallel loopback connections (sends round-robin across them, so
    /// concurrent senders do not serialize on one stream).
    int wire_connections = 2;
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

  /// Test/fault hook: shuts down every outbound wire connection (self-wire
  /// lanes and remote connections), so each subsequent wire send fails
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

  /// One lazily-established outbound connection to a remote process.
  /// A single ordered stream per address: frames to the same process
  /// arrive FIFO (publish-before-query ordering for the split overlay).
  struct RemoteConn {
    int fd = -1;
    std::mutex mu;
  };

  Config cfg_;

  // Sockets. listen_fd_ accepts; out_fds_ are the self-wire client ends
  // sends write to (each guarded by its own write mutex so concurrent
  // senders can use distinct streams in parallel); accepted connections
  // live in the io thread only.
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< unblocks the io thread's poll on stop
  std::uint16_t port_ = 0;
  std::vector<int> out_fds_;
  std::unique_ptr<std::mutex[]> out_mu_;
  std::atomic<std::uint64_t> round_robin_{0};

  // Outbound connections to other processes, keyed by (ip, port).
  std::mutex remotes_mu_;
  std::map<std::uint64_t, std::unique_ptr<RemoteConn>> remotes_;

  std::mutex rng_mu_;  ///< connect_to runs on concurrent sender threads
  Rng backoff_rng_;

  std::thread io_thread_;
};

}  // namespace hkws::net
