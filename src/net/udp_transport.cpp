#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace hkws::net {

UdpTransport::UdpTransport(Config cfg)
    : SocketTransport(CommonConfig{
          cfg.tick,
          std::min<std::uint32_t>(cfg.max_pad,
                                  static_cast<std::uint32_t>(kMaxDatagram / 2)),
          cfg.parked_ttl}),
      cfg_(cfg),
      drop_rng_(cfg.seed) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpTransport: socket failed");
  // Generous buffers: a burst of envelopes must not turn into silent
  // kernel-side loss beyond what the drop model injects deliberately.
  const int bufsz = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("UdpTransport: bind failed");
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  self_addr_ = addr;

  if (::pipe(wake_pipe_) != 0) {
    ::close(fd_);
    throw std::runtime_error("UdpTransport: pipe failed");
  }

  set_drop_rate(cfg.drop_rate);

  io_thread_ = std::thread([this] { io_loop(); });
  start_dispatch();
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::set_drop_rate(double rate) {
  if (rate < 0) rate = 0;
  if (rate > 1) rate = 1;
  drop_ppm_.store(static_cast<std::uint64_t>(rate * 1e6),
                  std::memory_order_relaxed);
}

void UdpTransport::stop() {
  if (!begin_stop()) return;
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  join_dispatch();
  if (io_thread_.joinable()) io_thread_.join();
  for (int* fd : {&fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  finish_stop();
}

void UdpTransport::wire_flush(Outbox& box) {
  // One datagram per frame, so the drop model decides frame by frame.
  const sockaddr_in dest = box.remote ? box.addr : self_addr_;
  const std::uint64_t ppm = drop_ppm_.load(std::memory_order_relaxed);
  std::size_t begin = 0;
  for (QueuedFrame& f : box.frames) {
    const std::uint8_t* data = box.bytes.data() + begin;
    const std::size_t size = f.end - begin;
    begin = f.end;
    if (stopping() || size > kMaxDatagram || fd_ < 0) {
      f.loss = ledger::Cause::kConn;
      continue;
    }
    // The seeded drop model: the frame dies here, exactly where a real
    // congested path would discard the datagram.
    if (ppm > 0 && drop_rng_.next_below(1000000) < ppm) {
      f.loss = ledger::Cause::kFault;
      continue;
    }
    const ssize_t n =
        ::sendto(fd_, data, size, 0, reinterpret_cast<const sockaddr*>(&dest),
                 sizeof(dest));
    if (n != static_cast<ssize_t>(size)) f.loss = ledger::Cause::kConn;
  }
}

void UdpTransport::io_loop() {
  std::vector<std::uint8_t> buf(64 * 1024);
  std::vector<Ready> batch;
  while (true) {
    if (stopping()) break;
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    // Every datagram waiting now reaches the strand in one hand-off (at
    // most kMaxBatch at a time, so a flood cannot starve the strand).
    while (batch.size() < kMaxBatch) {
      const ssize_t n =
          ::recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT, nullptr,
                     nullptr);
      if (n <= 0) break;
      // One datagram, one frame: no reassembly. A malformed or truncated
      // datagram is counted and dropped; the socket lives on.
      decode_inbound(buf.data(), static_cast<std::size_t>(n), batch);
    }
    hand_off(batch);
  }
}

}  // namespace hkws::net
