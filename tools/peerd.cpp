// peerd — the keyword-search cluster as real processes.
//
// Two subcommands, one binary:
//
//   peerd serve --shard I --shards N [--peers P] [--objects M] [--seed S]
//     Hosts one *shard* of the demo corpus: a complete Chord+DOLR+hypercube
//     cluster of P peers running over its own net::TcpTransport (real
//     loopback sockets, real threads), holding every corpus object whose id
//     maps to shard I. Listens on an ephemeral front-end TCP port — printed
//     as "PORT=<n>" on stdout — and answers fe.query wire frames
//     (net/wire.hpp) with fe.reply frames carrying the shard's
//     deterministic hit sequence.
//
//   peerd query --ports P1,P2,... [--threshold T] [--strategy name]
//               [--check] [--seed S] [--objects M] [--shards N] -- kw...
//     The front-end: scatters one superset query to every shard process,
//     gathers the fe.reply frames, merges hits in shard order, and prints
//     them. With --check it recomputes the expected answer with an
//     in-process LogicalIndex over the full corpus and exits nonzero unless
//     the distributed answer matches object-for-object, keywords and all —
//     the end-to-end assertion examples/multiprocess_demo.sh runs in CI.
//
//   peerd peer --rank I --procs N --mesh-dir D [--peers P] [--objects M]
//              [--seed S] [--transport tcp|udp] [--drop RATE]
//     The split-overlay deployment (index::PeerSlice): N processes share
//     ONE overlay — each owns the index tables of the peers hashing into
//     its slice, and every cross-slice protocol step (kws.insert,
//     kws.t_query, kws.results, kws.s_reply, ...) crosses a real process
//     boundary as a serialized frame, over TCP streams or UDP datagrams
//     (--transport udp adds seeded loss via --drop, recovered by the
//     slice's per-step retransmission). Processes rendezvous through
//     --mesh-dir: each writes rank.<I> with its transport port (announced
//     as NETPORT=<n>) and polls for the others. Rank 0 publishes the whole
//     seeded corpus (acknowledged, so the index settles before queries),
//     then serves the same fe.query front-end as `serve` — so `peerd query
//     --ports <rank0> --check` asserts the split overlay's answers against
//     LogicalIndex ground truth end to end.
//
// The corpus is generated, not loaded: seeded, so every process derives the
// same objects independently and the query side can reconstruct ground
// truth without any shared files. That also makes crash-restart trivial:
// a shard killed outright (SIGKILL) is relaunched with the same flags,
// re-derives and re-publishes its slice, and announces a fresh PORT= —
// examples/multiprocess_demo.sh --restart exercises exactly that and
// re-checks the answers byte-for-byte.
//
// Shutdown: SIGTERM/SIGINT stop the front-end loop and drain the transport
// gracefully (drain_and_stop — in-flight protocol work completes before the
// sockets close); "DRAIN=clean" on stdout confirms nothing was dropped, and
// "LEDGER=ok" that the process's message ledger identities hold.
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "dht/dolr.hpp"
#include "index/logical_index.hpp"
#include "index/overlay_index.hpp"
#include "index/peer_slice.hpp"
#include "net/ledger.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"

namespace {

using namespace hkws;

constexpr int kR = 6;

// SIGTERM/SIGINT → graceful drain. The handler is async-signal-safe: it
// flips the flag and shuts down the listen socket, which pops the accept
// loop out of its block; everything orderly happens on the main thread.
volatile std::sig_atomic_t g_stop = 0;
std::sig_atomic_t g_listen_fd = -1;

void on_terminate(int) {
  g_stop = 1;
  if (g_listen_fd >= 0) ::shutdown(g_listen_fd, SHUT_RDWR);
}

struct Options {
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t peers = 8;
  std::size_t objects = 200;
  std::size_t vocab = 12;
  std::uint64_t seed = 0xc0ffee;
  std::size_t threshold = 0;
  index::SearchStrategy strategy = index::SearchStrategy::kTopDownSequential;
  bool check = false;
  std::vector<std::uint16_t> ports;
  std::vector<std::string> keywords;
  // peer (split-overlay) mode
  int rank = 0;
  int procs = 1;
  std::string transport = "tcp";
  std::string mesh_dir;
  double drop = 0.0;
};

/// The full demo corpus; every process derives it identically from the
/// seed. Shard assignment is by object id, round-robin.
std::map<ObjectId, KeywordSet> make_corpus(const Options& opt) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(opt.seed);
  for (ObjectId id = 1; id <= opt.objects; ++id) {
    std::vector<Keyword> words;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < n; ++i)
      words.push_back("w" + std::to_string(rng.next_below(opt.vocab)));
    out[id] = KeywordSet(std::move(words));
  }
  return out;
}

std::optional<index::SearchStrategy> strategy_of(const std::string& name) {
  if (name == "top-down") return index::SearchStrategy::kTopDownSequential;
  if (name == "bottom-up") return index::SearchStrategy::kBottomUpSequential;
  if (name == "level-parallel") return index::SearchStrategy::kLevelParallel;
  return std::nullopt;
}

bool read_frame(int fd, std::vector<std::uint8_t>& buf,
                std::optional<net::DecodedFrame>& out) {
  std::uint8_t chunk[4096];
  while (true) {
    const std::optional<std::size_t> need =
        net::frame_size(buf.data(), buf.size());
    if (!need.has_value()) return false;  // malformed header
    if (*need != 0 && *need <= buf.size()) {
      out = net::decode_frame(buf.data(), *need);
      return out.has_value();
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer closed mid-frame
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

bool write_frame(int fd, const std::vector<std::uint8_t>& frame) {
  const std::uint8_t* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<net::WireHit> to_wire(const std::vector<index::Hit>& hits) {
  std::vector<net::WireHit> out;
  out.reserve(hits.size());
  for (const index::Hit& h : hits)
    out.push_back(net::WireHit{h.object, h.keywords.words()});
  return out;
}

// --- front-end listener -----------------------------------------------------

/// Binds an ephemeral loopback listener, announces "PORT=<n>", and answers
/// fe.query frames with `answer`'s fe.reply until SIGTERM/SIGINT. Returns
/// false only if the listener could not be set up.
bool serve_front_end(
    const std::function<net::FeReplyMsg(const net::FeQueryMsg&)>& answer) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return false;
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 16) != 0) {
    ::close(lfd);
    return false;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);
  std::printf("PORT=%u\n", static_cast<unsigned>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  g_listen_fd = lfd;
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGINT, on_terminate);

  while (g_stop == 0) {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR && g_stop == 0) continue;
      break;
    }
    std::vector<std::uint8_t> buf;
    std::optional<net::DecodedFrame> frame;
    if (!read_frame(cfd, buf, frame) || frame->kind != net::MsgKind::kFeQuery) {
      ::close(cfd);
      continue;  // malformed request: drop, keep serving
    }
    const net::FeReplyMsg reply = answer(std::get<net::FeQueryMsg>(frame->msg));
    write_frame(cfd, net::encode_frame(net::MsgKind::kFeReply,
                                       net::WireMessage{reply}));
    ::close(cfd);
  }
  ::close(lfd);
  return true;
}

// --- serve ------------------------------------------------------------------

// Drains and stops the transport, then prints the two verdicts the launcher
// asserts: DRAIN=clean (the stop lost nothing) and LEDGER=ok (this
// process's message ledger identities hold, net/ledger.hpp; otherwise the
// identity_error text). True if both hold.
bool drain_and_report(net::SocketTransport& transport) {
  const bool clean = transport.drain_and_stop(std::chrono::seconds(10));
  const std::string ledger = net::ledger::identity_error(transport.metrics());
  std::printf("DRAIN=%s\n", clean ? "clean" : "dirty");
  std::printf("LEDGER=%s\n", ledger.empty() ? "ok" : ledger.c_str());
  std::fflush(stdout);
  return clean && ledger.empty();
}

int run_serve(const Options& opt) {
  net::TcpTransport transport;
  auto dht = std::make_unique<dht::ChordNetwork>(
      dht::ChordNetwork::build(transport, opt.peers, {}));
  auto dolr = std::make_unique<dht::Dolr>(*dht);
  auto idx = std::make_unique<index::OverlayIndex>(
      *dolr, index::OverlayIndex::Config{.r = kR});

  // Publish this shard's slice of the corpus (strand-confined, like every
  // protocol initiation).
  {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    transport.schedule_in(0, [&] {
      for (const auto& [id, k] : make_corpus(opt))
        if (id % opt.shards == opt.shard) idx->publish(1, id, k);
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }
  if (!transport.wait_idle(std::chrono::seconds(60))) {
    std::fprintf(stderr, "peerd: shard %zu failed to settle\n", opt.shard);
    return 1;
  }

  // Front-end listener: ephemeral port, announced on stdout for the
  // launcher script.
  const bool served = serve_front_end([&](const net::FeQueryMsg& q) {
    const auto strategy = static_cast<index::SearchStrategy>(q.strategy);
    std::mutex mu;
    std::condition_variable cv;
    std::optional<index::SearchResult> result;
    transport.schedule_in(0, [&] {
      std::vector<Keyword> words(q.keywords.begin(), q.keywords.end());
      idx->superset_search(2, KeywordSet(std::move(words)), q.threshold,
                           strategy, [&](const index::SearchResult& r) {
                             std::lock_guard<std::mutex> lk(mu);
                             result = r;
                             cv.notify_all();
                           });
    });
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk, std::chrono::seconds(60),
                  [&] { return result.has_value(); });
    }
    net::FeReplyMsg reply;
    if (result.has_value()) {
      reply.complete = result->stats.complete;
      reply.messages = result->stats.messages;
      reply.hits = to_wire(result->hits);
    }
    transport.wait_idle(std::chrono::seconds(60));
    return reply;
  });
  if (!served) return 1;

  // Graceful shutdown: no new work is being initiated (the accept loop is
  // done), so drain whatever protocol traffic is still in flight before
  // tearing the runtime down.
  return drain_and_report(transport) ? 0 : 1;
}

// --- peer (split overlay) ---------------------------------------------------

// Mesh rendezvous: each process publishes "rank.<I>" in --mesh-dir holding
// its transport port. Written tmp-then-rename so a polling reader never
// sees a partial file.
bool write_mesh_entry(const std::string& dir, int rank, std::uint16_t port) {
  const std::string tmp = dir + "/.rank." + std::to_string(rank) + ".tmp";
  const std::string path = dir + "/rank." + std::to_string(rank);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << port << "\n";
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<std::uint16_t> read_mesh_entry(const std::string& dir, int rank) {
  std::ifstream in(dir + "/rank." + std::to_string(rank));
  unsigned port = 0;
  if (!(in >> port) || port == 0 || port > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

bool touch_mesh_marker(const std::string& dir, const std::string& name) {
  const std::string tmp = dir + "/." + name + ".tmp";
  const std::string path = dir + "/" + name;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << "1\n";
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool mesh_marker_present(const std::string& dir, const std::string& name) {
  return std::ifstream(dir + "/" + name).good();
}

int run_peer(const Options& opt) {
  const bool udp = opt.transport == "udp";
  std::unique_ptr<net::SocketTransport> transport;
  net::UdpTransport* udp_t = nullptr;
  std::uint16_t net_port = 0;
  if (udp) {
    net::UdpTransport::Config cfg;
    cfg.seed = opt.seed + 0x517 * static_cast<std::uint64_t>(opt.rank + 1);
    auto t = std::make_unique<net::UdpTransport>(cfg);
    net_port = t->port();
    udp_t = t.get();
    transport = std::move(t);
  } else {
    auto t = std::make_unique<net::TcpTransport>();
    net_port = t->port();
    transport = std::move(t);
  }

  index::PeerSlice slice(
      *transport,
      index::PeerSlice::Config{
          .r = kR,
          .n_peers = static_cast<net::EndpointId>(opt.peers),
          .procs = opt.procs,
          .rank = opt.rank,
          // UDP datagrams get lost; give every guarded step a generous
          // retransmission budget. TCP delivers or fails loudly — leave
          // retransmission off like the in-process tests do.
          .step_timeout = udp ? net::Time{300} : net::Time{0},
          .max_retries = 10,
      });

  if (!write_mesh_entry(opt.mesh_dir, opt.rank, net_port)) {
    std::fprintf(stderr, "peerd peer: cannot write mesh entry in %s\n",
                 opt.mesh_dir.c_str());
    return 1;
  }
  std::printf("NETPORT=%u\n", static_cast<unsigned>(net_port));
  std::fflush(stdout);

  // Wait for every other rank's entry, then wire the peer-address table:
  // each remote peer endpoint routes to its owner's transport port.
  std::vector<std::uint16_t> mesh(static_cast<std::size_t>(opt.procs), 0);
  mesh[static_cast<std::size_t>(opt.rank)] = net_port;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int j = 0; j < opt.procs; ++j) {
    if (j == opt.rank) continue;
    while (true) {
      if (const auto p = read_mesh_entry(opt.mesh_dir, j)) {
        mesh[static_cast<std::size_t>(j)] = *p;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "peerd peer: rank %d never joined the mesh\n", j);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  for (net::EndpointId ep = 1; ep <= opt.peers; ++ep) {
    const int owner = slice.rank_of(ep);
    if (owner != opt.rank)
      transport->set_peer_address(ep, {"127.0.0.1", mesh[owner]});
  }

  // Second rendezvous phase: nobody may emit protocol traffic until EVERY
  // rank has wired its peer-address table — a frame arriving earlier would
  // provoke a reply toward an endpoint whose route is not yet installed,
  // an unregistered drop that a reliable wire (step_timeout 0) never
  // repairs. Rank 0 is the only traffic initiator, so it alone waits.
  if (!touch_mesh_marker(opt.mesh_dir, "wired." + std::to_string(opt.rank))) {
    std::fprintf(stderr, "peerd peer: cannot write wired marker\n");
    return 1;
  }
  if (opt.rank == 0) {
    for (int j = 1; j < opt.procs; ++j) {
      while (!mesh_marker_present(opt.mesh_dir, "wired." + std::to_string(j))) {
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "peerd peer: rank %d never wired\n", j);
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  // Loss is armed only once the mesh is wired. The publishes below run
  // through it — they are acknowledged and retransmitted, so the index
  // still settles exactly.
  if (udp_t != nullptr && opt.drop > 0.0) udp_t->set_drop_rate(opt.drop);

  int rc = 0;
  if (opt.rank == 0) {
    // Rank 0 drives the demo: publish the whole seeded corpus (every
    // entry lands on its owning slice via the wire), wait for all acks,
    // then serve the fe.query front-end against the split overlay.
    const std::map<ObjectId, KeywordSet> corpus = make_corpus(opt);
    {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t acked = 0;
      for (const auto& [id, k] : corpus)
        slice.publish(id, k, [&] {
          std::lock_guard<std::mutex> lk(mu);
          ++acked;
          cv.notify_all();
        });
      std::unique_lock<std::mutex> lk(mu);
      if (!cv.wait_for(lk, std::chrono::seconds(60),
                       [&] { return acked == corpus.size(); })) {
        std::fprintf(stderr, "peerd peer: corpus failed to settle\n");
        return 1;
      }
    }

    const bool served = serve_front_end([&](const net::FeQueryMsg& q) {
      // The split overlay runs the paper's main algorithm; the strategy
      // field is accepted but only top-down is served.
      std::mutex mu;
      std::condition_variable cv;
      std::optional<index::SearchResult> result;
      std::vector<Keyword> words(q.keywords.begin(), q.keywords.end());
      slice.superset_search(KeywordSet(std::move(words)), q.threshold,
                            [&](index::SearchResult r) {
                              std::lock_guard<std::mutex> lk(mu);
                              result = std::move(r);
                              cv.notify_all();
                            });
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait_for(lk, std::chrono::seconds(60),
                    [&] { return result.has_value(); });
      }
      net::FeReplyMsg reply;
      if (result.has_value() && !result->stats.failed) {
        reply.complete = result->stats.complete;
        reply.messages = result->stats.messages;
        reply.hits = to_wire(result->hits);
      }
      return reply;
    });
    if (!served) rc = 1;
  } else {
    // Follower ranks serve their slice of the overlay until told to stop.
    std::signal(SIGTERM, on_terminate);
    std::signal(SIGINT, on_terminate);
    std::printf("READY=1\n");
    std::fflush(stdout);
    while (g_stop == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // A lossy mesh never goes fully quiet (retransmits of steps whose acks
  // died with the remote peer); give the drain a bounded window and report
  // honestly.
  const bool ok = drain_and_report(*transport);
  return rc != 0 ? rc : (ok ? 0 : 1);
}

// --- query ------------------------------------------------------------------

int connect_with_retry(std::uint16_t port) {
  auto backoff = std::chrono::milliseconds(5);
  for (int attempt = 0; attempt < 40; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(200));
  }
  return -1;
}

int run_query(const Options& opt) {
  net::FeQueryMsg q;
  q.threshold = opt.threshold;
  q.strategy = static_cast<std::uint8_t>(opt.strategy);
  q.keywords = opt.keywords;
  const auto request =
      net::encode_frame(net::MsgKind::kFeQuery, net::WireMessage{q});

  // Scatter-gather: one connection per shard, merged in shard order so the
  // output is deterministic.
  std::vector<net::FeReplyMsg> replies(opt.ports.size());
  for (std::size_t i = 0; i < opt.ports.size(); ++i) {
    const int fd = connect_with_retry(opt.ports[i]);
    if (fd < 0) {
      std::fprintf(stderr, "peerd query: cannot reach shard on port %u\n",
                   static_cast<unsigned>(opt.ports[i]));
      return 1;
    }
    std::vector<std::uint8_t> buf;
    std::optional<net::DecodedFrame> frame;
    if (!write_frame(fd, request) || !read_frame(fd, buf, frame) ||
        frame->kind != net::MsgKind::kFeReply) {
      std::fprintf(stderr, "peerd query: shard %zu protocol error\n", i);
      ::close(fd);
      return 1;
    }
    replies[i] = std::get<net::FeReplyMsg>(frame->msg);
    ::close(fd);
  }

  std::uint64_t messages = 0;
  std::vector<net::WireHit> merged;
  bool complete = true;
  for (const net::FeReplyMsg& r : replies) {
    messages += r.messages;
    complete = complete && r.complete;
    merged.insert(merged.end(), r.hits.begin(), r.hits.end());
  }
  for (const net::WireHit& h : merged) {
    std::string words;
    for (const std::string& w : h.keywords) {
      if (!words.empty()) words += ",";
      words += w;
    }
    std::printf("hit object=%llu keywords=%s\n",
                static_cast<unsigned long long>(h.object), words.c_str());
  }
  std::printf("total=%zu shards=%zu messages=%llu complete=%d\n",
              merged.size(), opt.ports.size(),
              static_cast<unsigned long long>(messages), complete ? 1 : 0);

  if (opt.check) {
    // Ground truth: the same seeded corpus through the in-process
    // reference index. The distributed answer must contain exactly the
    // same (object, keyword-set) pairs.
    index::LogicalIndex logical({.r = kR});
    for (const auto& [id, k] : make_corpus(opt)) logical.insert(id, k);
    std::vector<Keyword> words(opt.keywords.begin(), opt.keywords.end());
    const index::SearchResult ref = logical.superset_search(
        KeywordSet(std::move(words)), opt.threshold, opt.strategy);
    std::map<ObjectId, std::vector<std::string>> want, got;
    for (const index::Hit& h : ref.hits) want[h.object] = h.keywords.words();
    for (const net::WireHit& h : merged) got[h.object] = h.keywords;
    if (want != got) {
      std::fprintf(stderr,
                   "peerd query: CHECK FAILED — expected %zu hits, got %zu\n",
                   want.size(), got.size());
      return 2;
    }
    std::printf("check=ok expected=%zu\n", want.size());
  }
  return 0;
}

// --- argv -------------------------------------------------------------------

std::optional<Options> parse(int argc, char** argv, std::string& mode) {
  if (argc < 2) return std::nullopt;
  mode = argv[1];
  Options opt;
  int i = 2;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "--shard") {
      opt.shard = std::stoul(next());
    } else if (arg == "--shards") {
      opt.shards = std::stoul(next());
    } else if (arg == "--peers") {
      opt.peers = std::stoul(next());
    } else if (arg == "--objects") {
      opt.objects = std::stoul(next());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--threshold") {
      opt.threshold = std::stoul(next());
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--strategy") {
      const auto s = strategy_of(next());
      if (!s.has_value()) return std::nullopt;
      opt.strategy = *s;
    } else if (arg == "--rank") {
      opt.rank = std::stoi(next());
    } else if (arg == "--procs") {
      opt.procs = std::stoi(next());
    } else if (arg == "--transport") {
      opt.transport = next();
      if (opt.transport != "tcp" && opt.transport != "udp")
        return std::nullopt;
    } else if (arg == "--mesh-dir") {
      opt.mesh_dir = next();
    } else if (arg == "--drop") {
      opt.drop = std::stod(next());
      if (opt.drop < 0.0 || opt.drop >= 1.0) return std::nullopt;
    } else if (arg == "--ports") {
      std::string list = next();
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        opt.ports.push_back(static_cast<std::uint16_t>(std::stoul(tok)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      return std::nullopt;
    }
  }
  for (; i < argc; ++i) opt.keywords.emplace_back(argv[i]);
  if (opt.shards == 0 || opt.shard >= opt.shards) return std::nullopt;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  const std::optional<Options> opt = parse(argc, argv, mode);
  if (opt.has_value() && mode == "serve") return run_serve(*opt);
  if (opt.has_value() && mode == "query" && !opt->ports.empty() &&
      !opt->keywords.empty())
    return run_query(*opt);
  if (opt.has_value() && mode == "peer" && !opt->mesh_dir.empty() &&
      opt->procs >= 1 && opt->rank >= 0 && opt->rank < opt->procs &&
      opt->peers >= static_cast<std::size_t>(opt->procs))
    return run_peer(*opt);
  std::fprintf(
      stderr,
      "usage:\n"
      "  peerd serve --shard I --shards N [--peers P] [--objects M] "
      "[--seed S]\n"
      "  peerd peer --rank I --procs N --mesh-dir D [--peers P] "
      "[--objects M]\n"
      "             [--seed S] [--transport tcp|udp] [--drop RATE]\n"
      "  peerd query --ports P1,P2,... [--threshold T]\n"
      "              [--strategy top-down|bottom-up|level-parallel]\n"
      "              [--check] [--shards N] [--objects M] [--seed S] -- kw "
      "[kw...]\n");
  return 64;
}
