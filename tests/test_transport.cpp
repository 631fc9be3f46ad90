// TcpTransport runtime tests: delivery over real loopback sockets, the
// dispatch strand's serialization guarantee, timers, and — the property the
// rest of the repo depends on — counter-for-counter accounting parity with
// the simulator backend for the same send sequence.
//
// These tests exercise real threads and sockets; the CI tsan job runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/fault_transport.hpp"
#include "net/ledger.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kIdle = 5s;  // generous; loopback settles in milliseconds

TcpTransport::Config fast_config() {
  TcpTransport::Config cfg;
  cfg.tick = std::chrono::microseconds{100};
  return cfg;
}

TEST(TcpTransport, LocalSendIsFreeAndAsync) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  std::atomic<int> ran{0};
  t.send(1, 1, "kws.t_query", 64, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("net.local"), 1u);
  EXPECT_EQ(t.metrics().counter("net.messages"), 0u);
  EXPECT_EQ(t.metrics().counter("net.bytes"), 0u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 0u);
}

TEST(TcpTransport, UnregisteredDestinationDrops) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  std::atomic<int> ran{0};
  t.send(1, 99, "dolr.read", 32, [&] { ++ran; });
  t.register_endpoint(2);
  t.unregister_endpoint(2);
  t.send(1, 2, "dolr.read", 32, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.dropped"), 2u);
  EXPECT_EQ(t.metrics().counter("net.dropped.dolr.read"), 2u);
  EXPECT_EQ(t.metrics().counter("net.messages"), 0u);
}

TEST(TcpTransport, WireSendDeliversThroughSocketAndCounts) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 200, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.bytes"), 200u);
  EXPECT_EQ(t.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_GT(t.metrics().counter("net.wire_bytes"), 0u);  // real frames moved
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, OpaqueKindCrossesWire) {
  // Kinds without a registered wire id (ad-hoc maintenance pings) travel as
  // kOpaque envelopes carrying the label inline.
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  t.send(1, 2, "maint.ping", 16, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("msg.maint.ping"), 1u);
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, ObserverSeesEveryWireSend) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::vector<SendRecord> seen;
  t.set_send_observer([&](const std::string& kind, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(kind, "dolr.insert");
    seen.push_back(rec);
  });
  for (int i = 0; i < 5; ++i) t.send(1, 2, "dolr.insert", 48, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), 5u);
  for (const SendRecord& r : seen) {
    EXPECT_EQ(r.from, 1u);
    EXPECT_EQ(r.to, 2u);
    EXPECT_EQ(r.bytes, 48u);
    EXPECT_FALSE(r.lost);
  }
}

TEST(TcpTransport, HandlersAreSerializedOnTheStrand) {
  // Many threads send concurrently; handlers must never overlap (the
  // protocol state machines are not thread-safe — the strand is the
  // guarantee that lets them run unchanged on this backend).
  TcpTransport t(fast_config());
  for (EndpointId id = 1; id <= 8; ++id) t.register_endpoint(id);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> ran{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> senders;
  for (int th = 0; th < kThreads; ++th) {
    senders.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        const EndpointId from = static_cast<EndpointId>(1 + th);
        const EndpointId to = static_cast<EndpointId>(5 + (i % 4));
        t.send(from, to, "kws.t_query", 64, [&] {
          const int now_inside = ++inside;
          int prev = max_inside.load();
          while (now_inside > prev &&
                 !max_inside.compare_exchange_weak(prev, now_inside)) {
          }
          std::this_thread::yield();
          --inside;
          ++ran;
        });
      }
    });
  }
  for (auto& th : senders) th.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(max_inside.load(), 1);  // strict serialization
  EXPECT_EQ(t.metrics().counter("net.messages"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.delivered"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, TimersFireInDeadlineOrderAndCancel) {
  TcpTransport t(fast_config());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  auto mark = [&](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
    cv.notify_all();
  };
  t.set_timer(40, [&] { mark(3); });
  t.set_timer(10, [&] { mark(1); });
  const auto cancelled = t.set_timer(20, [&] { mark(99); });
  t.set_timer(25, [&] { mark(2); });
  EXPECT_TRUE(t.cancel_timer(cancelled));
  EXPECT_FALSE(t.cancel_timer(cancelled));  // already gone
  EXPECT_FALSE(t.cancel_timer(0));
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return order.size() >= 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TcpTransport, ScheduleInRunsOnStrandAndNowAdvances) {
  TcpTransport t(fast_config());
  const Time t0 = t.now();
  std::atomic<bool> ran{false};
  t.schedule_in(5, [&] { ran = true; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_TRUE(ran.load());
  EXPECT_GE(t.now(), t0 + 5);
}

TEST(TcpTransport, StopIsIdempotentAndJoins) {
  auto t = std::make_unique<TcpTransport>(fast_config());
  t->register_endpoint(1);
  t->register_endpoint(2);
  t->send(1, 2, "kws.done", 8, [] {});
  t->wait_idle(kIdle);
  t->stop();
  t->stop();
  t.reset();  // destructor stops again: no crash, no double close
}

// The connection-death accounting fix. Before it, a frame hitting a dead
// wire vanished silently: counted sent, never delivered, never lost — the
// conservation identity net.messages == net.delivered + net.lost broke, and
// no liveness signal fired. Now the loss is positive: net.dropped.conn +
// net.lost(.kind), the observer sees SendRecord.lost = true, and the
// peer-down hook fires (once per endpoint) for the failure detector.
TEST(TcpTransport, ConnectionDeathIsAccountedAsLoss) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::vector<SendRecord> seen;
  t.set_send_observer([&](const std::string& kind, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(kind, "kws.t_query");
    seen.push_back(rec);
  });
  t.send(1, 2, "kws.t_query", 64, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));

  t.sever_wire();
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 64, [&] { ++ran; });
  t.send(2, 1, "kws.t_query", 64, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));

  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.messages"), 3u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 2u);
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), 2u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 2u);
  // Conservation closes even across the wire's death.
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen[0].lost);
  EXPECT_TRUE(seen[1].lost);
  EXPECT_TRUE(seen[2].lost);
}

TEST(TcpTransport, PeerDownObserverFiresOncePerEndpoint) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.register_endpoint(3);
  std::mutex mu;
  std::vector<EndpointId> down;
  t.set_peer_down_observer([&](EndpointId ep) {
    std::lock_guard<std::mutex> lk(mu);
    down.push_back(ep);
  });
  t.sever_wire();
  // Several frames into the same dead connection: one report per endpoint,
  // not a storm.
  for (int i = 0; i < 4; ++i) t.send(1, 2, "kws.t_query", 16, [] {});
  t.send(1, 3, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<EndpointId> sorted = down;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<EndpointId>{2, 3}));
  }
  // Re-registration resets the once-latch: the peer "came back", so a new
  // death must be reported again.
  t.register_endpoint(2);
  t.send(1, 2, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(down.size(), 3u);
  EXPECT_EQ(down.back(), 2u);
}

TEST(TcpTransport, DrainAndStopCompletesPendingWorkThenStops) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) t.send(1, 2, "kws.t_query", 64, [&] { ++ran; });
  t.schedule_in(3, [&] { ++ran; });
  EXPECT_TRUE(t.drain_and_stop(std::chrono::milliseconds{5000}));
  EXPECT_EQ(ran.load(), 21);
  // After stop, the runtime refuses new timers instead of leaking them.
  EXPECT_EQ(t.set_timer(10, [] {}), 0u);
  EXPECT_FALSE(t.cancel_timer(1));
}

// TSan stress for the timer table: concurrent set/cancel/schedule from many
// threads racing the dispatch strand that fires them, plus live_timer_count
// reads — every shared-state path in the scheduler under contention.
TEST(TcpTransport, TimerStressConcurrentSetCancelFire) {
  TcpTransport t(fast_config());
  std::atomic<int> fired{0};
  std::atomic<int> cancelled{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int th = 0; th < kThreads; ++th) {
    workers.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        // Mix near-immediate timers (race the strand's firing) with far
        // ones that the same thread cancels; every other iteration also
        // posts a plain event and polls the live count.
        const auto id = t.set_timer(1 + (i % 7), [&] { ++fired; });
        if (i % 2 == 0) {
          const auto far = t.set_timer(1000000, [] {});
          if (t.cancel_timer(far)) ++cancelled;
        }
        if (i % 3 == 0) t.schedule_in(0, [&] { ++fired; });
        if (i % 5 == 0) (void)t.live_timer_count();
        if (i % 11 == th) (void)t.cancel_timer(id);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  // Every far timer the loop armed was cancelled; nothing may still be
  // pending except near timers that already fired.
  EXPECT_EQ(cancelled, kThreads * (kPerThread / 2));
  EXPECT_GT(fired.load(), 0);
  // Let any last near-deadline timers fire, then the count must be zero.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  EXPECT_EQ(t.live_timer_count(), 0u);
}

// The parity oracle: the exact send sequence, replayed against both
// backends, must produce identical protocol-level counters. (Wire-only
// counters — net.wire_bytes — are excluded: the simulator moves no frames.)
TEST(TransportParity, SimAndTcpCountIdentically) {
  struct Send {
    EndpointId from, to;
    const char* kind;
    std::size_t bytes;
  };
  const std::vector<Send> script = {
      {1, 2, "kws.t_query", 120}, {2, 1, "kws.t_cont", 17},
      {1, 1, "kws.results", 300}, {1, 42, "dolr.read", 32},  // 42 unregistered
      {2, 3, "maint.ping", 8},    {3, 2, "dolr.insert", 64},
      {1, 3, "kws.t_query", 120}, {3, 3, "kws.done", 8},
  };
  const std::vector<std::string> keys = {
      "net.messages", "net.bytes",  "net.local",
      "net.dropped",  "net.dropped.dolr.read",
      "msg.kws.t_query", "msg.kws.t_cont", "msg.kws.results",
      "msg.maint.ping",  "msg.dolr.insert", "msg.kws.done",
      "net.delivered"};

  sim::EventQueue clock;
  sim::Network simnet(clock);
  for (EndpointId id = 1; id <= 3; ++id) simnet.register_endpoint(id);
  for (const Send& s : script) simnet.send(s.from, s.to, s.kind, s.bytes, [] {});
  simnet.clock().run();

  TcpTransport tcp(fast_config());
  for (EndpointId id = 1; id <= 3; ++id) tcp.register_endpoint(id);
  for (const Send& s : script) tcp.send(s.from, s.to, s.kind, s.bytes, [] {});
  ASSERT_TRUE(tcp.wait_idle(kIdle));

  for (const std::string& key : keys) {
    EXPECT_EQ(tcp.metrics().counter(key), simnet.metrics().counter(key))
        << key;
  }

  // Loss script: the same sends with chosen wire messages lost, replayed on
  // every backend that can lose one. Per the transport.hpp contract,
  // net.dropped.<kind> counts unregistered sends only and a wire loss
  // counts net.lost.<kind> plus its cause.
  struct LossSend {
    EndpointId from, to;
    const char* kind;  ///< closure send; nullptr = kws.insert payload
    bool lose;
  };
  const std::vector<LossSend> loss_script = {
      {1, 2, "kws.t_query", true},  {2, 1, "kws.t_cont", false},
      {1, 1, "kws.results", false}, {1, 42, "dolr.read", false},
      {2, 3, "maint.ping", true},   {1, 2, nullptr, true},
      {3, 2, nullptr, false},       {1, 3, "kws.t_query", false},
      {3, 1, "kws.t_query", true},
  };
  const EntryMsg entry{7, {"loss", "script"}};
  std::set<std::uint64_t> lost_seqs;  // wire sequence numbers to drop
  std::uint64_t seq = 0;
  for (const LossSend& s : loss_script) {
    if (s.from == s.to || s.to > 3) continue;  // not a wire message
    if (s.lose) lost_seqs.insert(seq);
    ++seq;
  }
  class DropSeqs final : public sim::FaultModel {
   public:
    explicit DropSeqs(std::set<std::uint64_t> seqs) : seqs_(std::move(seqs)) {}
    sim::FaultActions inspect(EndpointId, EndpointId, const std::string&,
                              std::uint64_t seq, Rng&) override {
      sim::FaultActions a;
      a.drop = seqs_.contains(seq);
      return a;
    }

   private:
    std::set<std::uint64_t> seqs_;
  };
  const auto run_loss_script = [&](Transport& t,
                                   const std::function<void(bool)>& arm) {
    for (const LossSend& s : loss_script) {
      arm(s.lose);
      if (s.kind != nullptr)
        t.send(s.from, s.to, s.kind, 40, [] {});
      else
        t.send_payload(s.from, s.to, MsgKind::kKwsInsert, WireMessage{entry});
    }
    arm(false);
  };
  const auto no_arm = [](bool) {};
  const std::vector<std::string> loss_keys = {
      "net.messages",           "net.bytes",
      "net.delivered",          "net.lost",
      "net.lost.kws.t_query",   "net.lost.maint.ping",
      "net.lost.kws.insert",    "net.lost.kws.t_cont",
      "net.dropped",            "net.dropped.dolr.read",
      "net.dropped.kws.t_query", "net.dropped.maint.ping",
      "net.dropped.kws.insert", "net.dropped.unregistered",
      "net.dropped.fault",      "net.dropped.conn",
      "msg.kws.insert",         "msg.kws.t_query"};

  // Reference: the simulator with a fault model.
  sim::EventQueue ref_clock;
  sim::Network ref(ref_clock);
  for (EndpointId id = 1; id <= 3; ++id) ref.register_endpoint(id);
  ref.set_fault_model(std::make_unique<DropSeqs>(lost_seqs));
  run_loss_script(ref, no_arm);
  ref_clock.run();
  EXPECT_EQ(ref.metrics().counter("net.lost"), 4u);
  EXPECT_EQ(ledger::identity_error(ref.metrics()), "");

  // FaultTransport over the simulator.
  sim::EventQueue fs_clock;
  sim::Network fs_inner(fs_clock);
  FaultTransport fault_sim(fs_inner, std::make_unique<DropSeqs>(lost_seqs));
  for (EndpointId id = 1; id <= 3; ++id) fault_sim.register_endpoint(id);
  fault_sim.arm();
  run_loss_script(fault_sim, no_arm);
  fs_clock.run();

  // FaultTransport over TCP, driven from the dispatch strand like protocol
  // code.
  TcpTransport ft_inner(fast_config());
  FaultTransport fault_tcp(ft_inner, std::make_unique<DropSeqs>(lost_seqs));
  for (EndpointId id = 1; id <= 3; ++id) fault_tcp.register_endpoint(id);
  fault_tcp.arm();
  ft_inner.schedule_in(0, [&] { run_loss_script(fault_tcp, no_arm); });
  ASSERT_TRUE(ft_inner.wait_idle(kIdle));

  // UdpTransport's own drop model, armed for exactly the lost sends.
  UdpTransport udp(UdpTransport::Config{});
  for (EndpointId id = 1; id <= 3; ++id) udp.register_endpoint(id);
  run_loss_script(udp, [&](bool lose) { udp.set_drop_rate(lose ? 1.0 : 0.0); });
  ASSERT_TRUE(udp.wait_idle(kIdle));

  const std::vector<std::pair<const char*, const Transport*>> lossy = {
      {"fault/sim", &fault_sim}, {"fault/tcp", &fault_tcp}, {"udp", &udp}};
  for (const auto& [name, t] : lossy) {
    EXPECT_EQ(ledger::identity_error(t->metrics()), "") << name;
    for (const std::string& key : loss_keys)
      EXPECT_EQ(t->metrics().counter(key), ref.metrics().counter(key))
          << name << " " << key;
  }
}

// Both backends satisfy the same abstract interface; drive them through
// Transport& only, the way every protocol layer does.
TEST(TransportParity, PolymorphicUseThroughTheInterface) {
  sim::EventQueue clock;
  sim::Network simnet(clock);
  TcpTransport tcp(fast_config());
  std::vector<Transport*> backends = {&simnet, &tcp};
  for (Transport* tr : backends) {
    tr->register_endpoint(7);
    EXPECT_TRUE(tr->is_registered(7));
    EXPECT_FALSE(tr->is_registered(8));
    std::atomic<int> ran{0};
    tr->send(7, 7, "kws.pin", 10, [&] { ++ran; });
    tr->schedule_in(1, [&] { ++ran; });
    const auto timer = tr->set_timer(1000000, [] {});
    EXPECT_TRUE(tr->cancel_timer(timer));
    if (tr == &simnet) {
      simnet.clock().run();
    } else {
      ASSERT_TRUE(tcp.wait_idle(kIdle));
    }
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(tr->metrics().counter("net.local"), 1u);
  }
}

// Satellite of the runtime work: the obs tracing hook is written against
// the Transport interface, so the same attach_network() instruments wire
// sends on either backend. (The sim side is covered in test_obs; this
// pins the socket side.)
TEST(TransportParity, ObsTracingAttachesToBothBackends) {
  obs::Tracer tracer;
  TcpTransport tcp(fast_config());
  attach_network(tracer, tcp);  // through Transport&, not a concrete type
  tcp.register_endpoint(1);
  tcp.register_endpoint(2);
  tcp.send(1, 2, "kws.t_query", 64, [] {});
  tcp.send(2, 1, "kws.results", 32, [] {});
  ASSERT_TRUE(tcp.wait_idle(kIdle));
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].name, "kws.t_query");
  EXPECT_EQ(tracer.events()[1].name, "kws.results");
  EXPECT_EQ(tcp.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(tcp.metrics().counter("msg.kws.results"), 1u);
}

// --- Satellite regressions --------------------------------------------------

// Regression for the per-peer counter data race: sends bump PeerState
// counters under the shared (reader) side of peers_mu_, so two threads
// sending from the same endpoint raced on `++sent` before the counters
// became atomic. Run under TSan (the CI tsan job builds this binary) this
// test fails on the pre-fix code.
TEST(TcpTransport, ConcurrentSendsFromManyThreadsAreRaceFree) {
  TcpTransport t(fast_config());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  for (EndpointId id = 1; id <= kThreads + 1; ++id) t.register_endpoint(id);
  std::atomic<int> ran{0};
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    senders.emplace_back([&t, &ran, i] {
      // Half the sends share endpoint 1 as the source — the exact shape of
      // the original race — and all target the same destination.
      const EndpointId from = (i % 2 == 0) ? 1 : static_cast<EndpointId>(i + 1);
      for (int j = 0; j < kPerThread; ++j)
        t.send(from, kThreads + 1, "kws.t_query", 32, [&ran] { ++ran; });
    });
  }
  for (std::thread& th : senders) th.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(t.metrics().counter("net.messages"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.delivered"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.lost"), 0u);
}

// Regression for the parked-handler leak: a frame that dies on the read
// side of the wire used to strand its parked entry forever — inflight_
// never decremented, so drain_and_stop() wedged until its timeout. The
// deadline sweep now reclaims the entry as a connection loss. Pre-fix,
// this test fails: wait_idle times out and net.dropped.conn stays 0.
TEST(TcpTransport, ParkedHandlerSweepReclaimsFramesDeadOnTheWire) {
  TcpTransport::Config cfg = fast_config();
  cfg.parked_ttl = std::chrono::milliseconds{100};  // fast sweep for the test
  TcpTransport t(cfg);
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.drop_inbound(1);  // the io thread kills the next inbound frame
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 64, [&ran] { ++ran; });
  // The sweep must release the stranded slot well within the idle budget.
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);  // the handler was released, never executed
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 0u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 1u);
  EXPECT_EQ(t.metrics().counter("net.dropped.fault"), 0u);
  // Conservation closes: the swallowed frame is attributed, not leaked.
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
  // A lost frame is packet death, not peer death: drain still succeeds.
  EXPECT_TRUE(t.drain_and_stop(std::chrono::milliseconds{2000}));
}

// --- Outbox batching ----------------------------------------------------------

// One strand handler sends more frames than one outbox holds (the 64 KiB
// flush bound), so its frames leave in several writes: every one arrives,
// in send order, and the ledger closes.
TEST(TcpTransport, OneTurnsFramesArriveInSendOrderAcrossFlushes) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  constexpr int kFrames = 5000;
  std::vector<int> order;  // written on the strand, read after wait_idle
  t.schedule_in(0, [&] {
    for (int i = 0; i < kFrames; ++i)
      t.send(1, 2, "kws.t_query", 64, [&order, i] { order.push_back(i); });
  });
  ASSERT_TRUE(t.wait_idle(kIdle));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) ASSERT_EQ(order[i], i);
  EXPECT_GT(t.metrics().counter("net.wire_bytes"), 2u * 64 * 1024);
  EXPECT_EQ(t.metrics().counter("net.delivered"),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(ledger::identity_error(t.metrics()), "");
  EXPECT_EQ(t.decode_errors(), 0u);
}

// sever_wire() with frames still queued flushes them before it cuts: those
// are delivered, and every frame queued after the cut is a connection loss
// the observer sees as lost, with one peer-down report per endpoint.
TEST(TcpTransport, SeverDeliversFramesQueuedBeforeTheCut) {
  TcpTransport t(fast_config());
  for (EndpointId id = 1; id <= 3; ++id) t.register_endpoint(id);
  std::mutex mu;
  std::vector<bool> lost;  // SendRecord.lost, in observation order
  std::vector<EndpointId> down;
  t.set_send_observer([&](const std::string&, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    lost.push_back(rec.lost);
  });
  t.set_peer_down_observer([&](EndpointId ep) {
    std::lock_guard<std::mutex> lk(mu);
    down.push_back(ep);
  });
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  t.schedule_in(0, [&] {
    for (int i = 0; i < 10; ++i)
      t.send(1, 2, "kws.t_query", 64, [&before] { ++before; });
    t.sever_wire();  // on the strand: the ten frames are still queued
    for (int i = 0; i < 4; ++i)
      t.send(1, 2, "kws.t_query", 64, [&after] { ++after; });
    t.send(1, 3, "kws.t_query", 64, [&after] { ++after; });
  });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(before.load(), 10);
  EXPECT_EQ(after.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 10u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 5u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 5u);
  EXPECT_EQ(ledger::identity_error(t.metrics()), "");
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(lost.size(), 15u);
  for (std::size_t i = 0; i < lost.size(); ++i)
    EXPECT_EQ(lost[i], i >= 10) << "frame " << i;
  std::sort(down.begin(), down.end());
  EXPECT_EQ(down, (std::vector<EndpointId>{2, 3}));
}

// UDP keeps one datagram per frame inside a flush, so its seeded drop model
// still decides frame by frame: a run whose 200 frames leave in one turn
// loses exactly the frames a run flushing each frame alone loses, each one
// attributed to the model (net.dropped.fault).
TEST(UdpTransport, BatchedFramesKeepPerDatagramDropAttribution) {
  const auto delivered = [](bool one_turn) {
    UdpTransport::Config cfg;
    cfg.drop_rate = 0.3;
    cfg.seed = 11;
    UdpTransport t(cfg);
    t.register_endpoint(1);
    t.register_endpoint(2);
    std::atomic<std::uint64_t> seen_lost{0};
    t.set_send_observer([&](const std::string&, const SendRecord& rec) {
      if (rec.lost) ++seen_lost;
    });
    constexpr int kFrames = 200;
    std::vector<int> ran;  // written on the strand, read after wait_idle
    const auto send = [&](int i) {
      t.send(1, 2, "kws.t_query", 64, [&ran, i] { ran.push_back(i); });
    };
    if (one_turn) {
      t.schedule_in(0, [&] {
        for (int i = 0; i < kFrames; ++i) send(i);
      });
    } else {
      for (int i = 0; i < kFrames; ++i) send(i);  // each flushed alone
    }
    EXPECT_TRUE(t.wait_idle(kIdle));
    const std::uint64_t lost = kFrames - ran.size();
    EXPECT_EQ(ledger::identity_error(t.metrics()), "");
    EXPECT_EQ(t.metrics().counter("net.dropped.fault"), lost);
    EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 0u);
    EXPECT_EQ(seen_lost.load(), lost);
    std::sort(ran.begin(), ran.end());
    return ran;
  };
  const std::vector<int> batched = delivered(true);
  const std::vector<int> alone = delivered(false);
  EXPECT_EQ(batched, alone);
  EXPECT_GT(batched.size(), 0u);
  EXPECT_LT(batched.size(), 200u);
}

// Sends after stop() act directly on the caller's thread against a wire
// that is gone: they must be counted losses, not crashes (originally a
// division by zero in the self-wire's lane selection).
TEST(TcpTransport, SendAfterStopIsCountedLossNotCrash) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.send(1, 2, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  t.stop();
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    t.send(1, 2, "kws.t_query", 16, [&ran] { ++ran; });
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.messages"), 9u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 8u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 8u);
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
}

// --- Cross-process payload delivery -----------------------------------------

// Two transport instances, each owning endpoints of one overlay, exchange
// real serialized messages: the peer-address table routes send_payload() to
// the owning instance, which decodes the inner frame and dispatches it to
// its payload handler. Accounting closes per instance: the sender counts
// net.messages + net.delivered + net.remote.out; the receiver counts only
// net.remote.in.
TEST(TcpTransport, PayloadCrossesBetweenInstancesBothDirections) {
  TcpTransport a(fast_config());
  TcpTransport b(fast_config());
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  ASSERT_TRUE(b.set_peer_address(1, PeerAddr{"127.0.0.1", a.port()}));
  EXPECT_TRUE(a.has_peer_address(2));
  EXPECT_FALSE(a.has_peer_address(1));

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryMsg> at_b;
  std::vector<HitsMsg> at_a;
  b.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(kind, MsgKind::kKwsTQuery);
    at_b.push_back(std::get<QueryMsg>(msg));
    cv.notify_all();
  });
  a.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 2u);
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(kind, MsgKind::kKwsResults);
    at_a.push_back(std::get<HitsMsg>(msg));
    cv.notify_all();
  });

  const QueryMsg query{7, 3, 1, 10, 0, {"keyword", "search"}};
  a.send_payload(1, 2, MsgKind::kKwsTQuery, WireMessage{query});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_b.empty(); }));
    EXPECT_EQ(at_b.front(), query);
  }

  HitsMsg hits;
  hits.request = 7;
  hits.node = 3;
  hits.hits.push_back(WireHit{99, {"keyword", "search", "extra"}});
  b.send_payload(2, 1, MsgKind::kKwsResults, WireMessage{hits});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_a.empty(); }));
    EXPECT_EQ(at_a.front(), hits);
  }
  ASSERT_TRUE(a.wait_idle(kIdle));
  ASSERT_TRUE(b.wait_idle(kIdle));

  // Sender-side conservation: a originated one wire message and the wire
  // accepted it; the receiving process does not count it delivered again.
  EXPECT_EQ(a.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(a.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.out"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.in"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.in.kws.results"), 1u);
  EXPECT_EQ(a.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(b.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(b.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.out"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.in"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.in.kws.t_query"), 1u);
  EXPECT_EQ(b.metrics().counter("msg.kws.results"), 1u);
  EXPECT_EQ(a.decode_errors(), 0u);
  EXPECT_EQ(b.decode_errors(), 0u);
}

// send_payload() to an endpoint with no peer address serializes through the
// local self-wire instead: same codec coverage, local accounting (no
// net.remote.*), handler dispatched on this instance's strand.
TEST(TcpTransport, PayloadWithoutAddressLoopsThroughLocalWire) {
  TcpTransport t(fast_config());
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ControlMsg> got;
  t.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(kind, MsgKind::kKwsTCont);
    got.push_back(std::get<ControlMsg>(msg));
    cv.notify_all();
  });
  const ControlMsg cont{5, 9, 2, false};
  t.send_payload(1, 2, MsgKind::kKwsTCont, WireMessage{cont});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !got.empty(); }));
    EXPECT_EQ(got.front(), cont);
  }
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("msg.kws.t_cont"), 1u);
  EXPECT_EQ(t.metrics().counter("net.remote.out"), 0u);
  EXPECT_EQ(t.metrics().counter("net.remote.in"), 0u);
  EXPECT_EQ(t.decode_errors(), 0u);
}

}  // namespace
}  // namespace hkws::net
