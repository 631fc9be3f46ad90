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

  // The self-wire: one loopback connection, written only by the strand.
  // connect() succeeds against the listen backlog even before the io thread
  // accepts, but retry with seeded exponential backoff anyway — the same
  // policy a cross-process sender uses against a peer that is still
  // starting up.
  out_fd_ = connect_loopback();
  if (out_fd_ < 0) {
    stop();
    throw std::runtime_error("TcpTransport: loopback connect failed");
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
    const std::chrono::milliseconds jitter(backoff_rng_.next_below(
        static_cast<std::uint64_t>(backoff.count() / 2 + 1)));
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
  close_fd(out_fd_);
  for (auto& [key, fd] : remotes_) close_fd(fd);
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  finish_stop();
}

// --- The wire ---------------------------------------------------------------

SocketTransport::WireLoss TcpTransport::wire_send(
    const std::vector<std::uint8_t>& frame, const sockaddr_in* remote) {
  constexpr ledger::Cause kDead = ledger::Cause::kConn;
  if (stopping()) return kDead;
  if (remote == nullptr) {
    if (out_fd_ < 0 || !write_all(out_fd_, frame.data(), frame.size()))
      return kDead;
    return std::nullopt;
  }
  // Cross-process: established lazily and re-established after failure (a
  // restarted process gets a fresh connection on the next frame).
  int& fd = remotes_.try_emplace(addr_key(*remote), -1).first->second;
  if (fd < 0) fd = connect_to(*remote);
  if (fd < 0) return kDead;
  if (!write_all(fd, frame.data(), frame.size())) {
    close_fd(fd);
    return kDead;
  }
  return std::nullopt;
}

void TcpTransport::sever_wire() {
  if (post_to_strand([this] { sever_wire(); })) return;
  if (out_fd_ >= 0) ::shutdown(out_fd_, SHUT_RDWR);
  for (auto& [key, fd] : remotes_)
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
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
    std::optional<DecodedFrame> frame =
        decode_frame(buf.data() + off, *need);
    if (!frame.has_value() || frame->kind != MsgKind::kEnvelope) {
      note_decode_error();
      return false;
    }
    on_envelope(std::get<EnvelopeMsg>(std::move(frame->msg)));
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
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
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
