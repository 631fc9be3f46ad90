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

/// Writes as much of [data, data+len) as the socket accepts, handling
/// partial writes and EINTR; returns the bytes written (len unless the
/// connection failed). MSG_NOSIGNAL so a peer closing mid-write surfaces
/// as EPIPE, not a process signal.
std::size_t write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  return done;
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

void TcpTransport::wire_flush(Outbox& box) {
  // One write for every frame queued to this destination. A frame the
  // socket did not accept whole is lost with the connection.
  std::size_t accepted = 0;
  if (!stopping()) {
    int* fd = &out_fd_;
    if (box.remote) {
      // Cross-process: established lazily and re-established after
      // failure (a restarted process gets a fresh connection on the next
      // flush).
      fd = &remotes_.try_emplace(addr_key(box.addr), -1).first->second;
      if (*fd < 0) *fd = connect_to(box.addr);
    }
    if (*fd >= 0) {
      accepted = write_all(*fd, box.bytes.data(), box.bytes.size());
      if (accepted < box.bytes.size() && box.remote) close_fd(*fd);
    }
  }
  for (QueuedFrame& f : box.frames)
    if (f.end > accepted) f.loss = ledger::Cause::kConn;
}

void TcpTransport::sever_wire() {
  if (post_to_strand([this] { sever_wire(); })) return;
  flush_outboxes();  // frames queued before the cut still go out whole
  if (out_fd_ >= 0) ::shutdown(out_fd_, SHUT_RDWR);
  for (auto& [key, fd] : remotes_)
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

// --- IO thread --------------------------------------------------------------

std::optional<std::size_t> TcpTransport::decode_stream(
    const std::uint8_t* data, std::size_t len, std::vector<Ready>& batch) {
  std::size_t off = 0;
  while (true) {
    const std::optional<std::size_t> need = frame_size(data + off, len - off);
    if (!need.has_value()) {
      note_decode_error();
      return std::nullopt;  // malformed header: drop the connection
    }
    if (*need == 0 || *need > len - off) return off;  // incomplete frame
    if (!decode_inbound(data + off, *need, batch)) return std::nullopt;
    off += *need;
  }
}

void TcpTransport::io_loop() {
  struct Conn {
    int fd;
    std::vector<std::uint8_t> buf;  ///< an incomplete frame's bytes
  };
  std::vector<Conn> conns;
  std::vector<pollfd> fds;
  std::vector<Ready> batch;

  while (true) {
    if (stopping()) break;
    fds.clear();
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
        // Decode every complete frame of the chunk (after the bytes left
        // over from the last read); keep the incomplete tail.
        const bool buffered = !c.buf.empty();
        if (buffered) c.buf.insert(c.buf.end(), chunk, chunk + n);
        const std::uint8_t* data = buffered ? c.buf.data() : chunk;
        const std::size_t len =
            buffered ? c.buf.size() : static_cast<std::size_t>(n);
        const std::optional<std::size_t> used =
            decode_stream(data, len, batch);
        if (!used.has_value()) {
          ::close(c.fd);
          c.fd = -1;  // decode error: drop below
        } else if (buffered) {
          c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<long>(*used));
        } else {
          c.buf.assign(data + *used, data + len);
        }
      } else if (n == 0 || (n < 0 && errno != EINTR)) {
        ::close(c.fd);
        c.fd = -1;  // closed or errored
      }
    }
    // Everything this poll round read reaches the strand at once.
    hand_off(batch);
    for (std::size_t i = conns.size(); i-- > 0;) {
      if (conns[i].fd < 0) {
        conns.erase(conns.begin() + static_cast<long>(i));
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
}

}  // namespace hkws::net
