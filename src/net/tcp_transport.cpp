#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace hkws::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Full write with partial-write/EINTR handling. MSG_NOSIGNAL so a peer
/// closing mid-write surfaces as EPIPE, not a process signal.
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t addr_key(const sockaddr_in& sa) {
  return (static_cast<std::uint64_t>(sa.sin_addr.s_addr) << 16) |
         ntohs(sa.sin_port);
}

}  // namespace

TcpTransport::TcpTransport(Config cfg)
    : SocketTransport(CommonConfig{cfg.tick, cfg.max_pad, cfg.parked_ttl}),
      cfg_(cfg),
      backoff_rng_(cfg.seed) {
  if (cfg_.wire_connections < 1) cfg_.wire_connections = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: bind/listen failed");
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: pipe failed");
  }

  // The self-wire: a small pool of loopback connections the senders
  // round-robin across. connect() succeeds against the listen backlog even
  // before the io thread accepts, but retry with seeded exponential backoff
  // anyway — the same policy a cross-process sender uses against a peer
  // that is still starting up.
  out_mu_ = std::make_unique<std::mutex[]>(
      static_cast<std::size_t>(cfg_.wire_connections));
  for (int i = 0; i < cfg_.wire_connections; ++i) {
    const int fd = connect_loopback();
    if (fd < 0) {
      stop();
      throw std::runtime_error("TcpTransport: loopback connect failed");
    }
    out_fds_.push_back(fd);
  }

  io_thread_ = std::thread([this] { io_loop(); });
  start_dispatch();
}

TcpTransport::~TcpTransport() { stop(); }

int TcpTransport::connect_loopback() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  return connect_to(addr);
}

int TcpTransport::connect_to(const sockaddr_in& addr) {
  auto backoff = cfg_.connect_backoff;
  for (int attempt = 0; attempt < cfg_.connect_attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in a = addr;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    if (stopping()) return -1;
    // Exponential backoff with seeded jitter, capped.
    std::chrono::milliseconds jitter;
    {
      std::lock_guard<std::mutex> lk(rng_mu_);
      jitter = std::chrono::milliseconds(backoff_rng_.next_below(
          static_cast<std::uint64_t>(backoff.count() / 2 + 1)));
    }
    std::this_thread::sleep_for(backoff + jitter);
    backoff = std::min(backoff * 2, cfg_.connect_backoff_cap);
  }
  return -1;
}

void TcpTransport::close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void TcpTransport::stop() {
  if (!begin_stop()) return;
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  join_dispatch();
  if (io_thread_.joinable()) io_thread_.join();
  abandon_inflight();
  // Tear the out-fds down under their lane locks: a racing late send sees
  // fd == -1 and counts a connection loss instead of writing a dead fd.
  for (std::size_t lane = 0; lane < out_fds_.size(); ++lane) {
    std::lock_guard<std::mutex> lk(out_mu_[lane]);
    close_fd(out_fds_[lane]);
  }
  {
    std::lock_guard<std::mutex> lk(remotes_mu_);
    for (auto& [key, rc] : remotes_) {
      std::lock_guard<std::mutex> clk(rc->mu);
      close_fd(rc->fd);
    }
  }
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

// --- The wire ---------------------------------------------------------------

SocketTransport::WireLoss TcpTransport::wire_send(
    const std::vector<std::uint8_t>& frame, const sockaddr_in* remote) {
  constexpr ledger::Cause kDead = ledger::Cause::kConn;
  if (stopping()) return kDead;
  if (remote == nullptr) {
    // Self-wire: round-robin over the loopback lanes. Guard the lane math —
    // a send racing stop() (or a constructor that never built lanes) must
    // count a loss, not divide by zero.
    const std::size_t lanes = out_fds_.size();
    if (lanes == 0) return kDead;
    const std::size_t lane =
        round_robin_.fetch_add(1, std::memory_order_relaxed) % lanes;
    std::lock_guard<std::mutex> lk(out_mu_[lane]);
    if (out_fds_[lane] < 0) return kDead;
    if (!write_all(out_fds_[lane], frame.data(), frame.size())) return kDead;
    return std::nullopt;
  }
  // Cross-process: one ordered stream per destination address, established
  // lazily and re-established after failure (a restarted process gets a
  // fresh connection on the next frame).
  RemoteConn* rc;
  {
    std::lock_guard<std::mutex> lk(remotes_mu_);
    auto& slot = remotes_[addr_key(*remote)];
    if (!slot) slot = std::make_unique<RemoteConn>();
    rc = slot.get();
  }
  std::lock_guard<std::mutex> lk(rc->mu);
  if (rc->fd < 0) rc->fd = connect_to(*remote);
  if (rc->fd < 0) return kDead;
  if (!write_all(rc->fd, frame.data(), frame.size())) {
    close_fd(rc->fd);
    return kDead;
  }
  return std::nullopt;
}

void TcpTransport::sever_wire() {
  for (std::size_t lane = 0; lane < out_fds_.size(); ++lane) {
    std::lock_guard<std::mutex> lk(out_mu_[lane]);
    if (out_fds_[lane] >= 0) ::shutdown(out_fds_[lane], SHUT_RDWR);
  }
  std::lock_guard<std::mutex> lk(remotes_mu_);
  for (auto& [key, rc] : remotes_) {
    std::lock_guard<std::mutex> clk(rc->mu);
    if (rc->fd >= 0) ::shutdown(rc->fd, SHUT_RDWR);
  }
}

// --- IO thread --------------------------------------------------------------

bool TcpTransport::drain_buffer(std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (true) {
    const std::optional<std::size_t> need =
        frame_size(buf.data() + off, buf.size() - off);
    if (!need.has_value()) {
      note_decode_error();
      return false;  // malformed header: drop the connection
    }
    if (*need == 0 || *need > buf.size() - off) break;  // incomplete frame
    const std::optional<DecodedFrame> frame =
        decode_frame(buf.data() + off, *need);
    if (!frame.has_value() || frame->kind != MsgKind::kEnvelope) {
      note_decode_error();
      return false;
    }
    on_envelope(std::get<EnvelopeMsg>(frame->msg));
    off += *need;
  }
  if (off > 0) buf.erase(buf.begin(), buf.begin() + static_cast<long>(off));
  return true;
}

void TcpTransport::io_loop() {
  struct Conn {
    int fd;
    std::vector<std::uint8_t> buf;
  };
  std::vector<Conn> conns;

  while (true) {
    if (stopping()) break;
    sweep_parked();
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), 100) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns.push_back(Conn{fd, {}});
        continue;  // re-poll with the new connection included
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i - 2];
      std::uint8_t chunk[kReadChunk];
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.buf.insert(c.buf.end(), chunk, chunk + n);
        if (!drain_buffer(c.buf)) {
          ::close(c.fd);
          c.fd = -1;  // decode error: drop below
        }
      } else if (n == 0 || (n < 0 && errno != EINTR)) {
        ::close(c.fd);
        c.fd = -1;  // closed or errored
      }
    }
    for (std::size_t i = conns.size(); i-- > 0;) {
      if (conns[i].fd < 0) {
        conns.erase(conns.begin() + static_cast<long>(i));
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
}

}  // namespace hkws::net
