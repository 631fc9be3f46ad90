// FaultTransport decorator tests: the simulator's drop / duplicate / delay /
// partition fault semantics applied at the transport narrow waist, over both
// backends. The load-bearing properties: a drop never reaches the inner
// transport but is fully accounted (sent + lost + net.dropped.fault, observer
// lost = true), injection starts only at arm(), and the conservation identity
// net.messages == net.delivered + net.lost closes over real sockets too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_transport.hpp"
#include "net/tcp_transport.hpp"
#include "sim/network.hpp"
#include "torture/fault_plan.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;
using torture::FaultEvent;
using torture::FaultInjector;
using torture::FaultKind;
using torture::FaultPlan;

constexpr auto kIdle = 5s;

/// Plan with explicit events (no seed derivation — tests pick their targets).
FaultPlan plan_of(std::vector<FaultEvent> events) {
  FaultPlan p;
  p.events = std::move(events);
  return p;
}

TEST(FaultTransport, UnarmedPassesThroughUninspected) {
  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDrop, 0, 0}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  std::atomic<int> ran{0};
  ft.send(1, 2, "kws.t_query", 64, [&] { ++ran; });
  clock.run();
  EXPECT_EQ(ran.load(), 1);  // the drop @0 never fired: not armed
  EXPECT_EQ(ft.wire_seq(), 0u);
  EXPECT_EQ(ft.metrics().counter("net.lost"), 0u);
}

TEST(FaultTransport, DropIsAccountedAndNeverReachesInner) {
  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDrop, 0, 0}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  std::vector<SendRecord> seen;
  ft.set_send_observer(
      [&](const std::string&, const SendRecord& r) { seen.push_back(r); });
  ft.arm();
  std::atomic<int> ran{0};
  ft.send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 0: dropped
  ft.send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 1: clean
  clock.run();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(ft.wire_seq(), 2u);
  // Both count as sent; exactly one as lost, attributed to fault injection.
  EXPECT_EQ(ft.metrics().counter("net.messages"), 2u);
  EXPECT_EQ(ft.metrics().counter("msg.kws.t_query"), 2u);
  EXPECT_EQ(ft.metrics().counter("net.lost"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.dropped.fault"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.delivered"), 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].lost);
  EXPECT_FALSE(seen[1].lost);
}

TEST(FaultTransport, DuplicateDeliversExtraCopies) {
  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDuplicate, 0, 0}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  ft.arm();
  std::atomic<int> ran{0};
  ft.send(1, 2, "kws.results", 32, [&] { ++ran; });
  clock.run();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ft.metrics().counter("net.dup"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.messages"), 2u);  // two real sends
  EXPECT_EQ(ft.metrics().counter("net.delivered"), 2u);
}

TEST(FaultTransport, DelayDefersThroughInnerScheduler) {
  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDelay, 0, 50}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  ft.arm();
  std::atomic<int> ran{0};
  ft.send(1, 2, "kws.t_cont", 16, [&] { ++ran; });
  clock.run_until(40);
  EXPECT_EQ(ran.load(), 0);  // still parked behind the delay spike
  clock.run();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(ft.metrics().counter("net.delayed"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.delivered"), 1u);
}

TEST(FaultTransport, LocalAndUnregisteredSendsAreNotNumbered) {
  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDrop, 0, 0}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  ft.arm();
  std::atomic<int> ran{0};
  ft.send(1, 1, "kws.pin", 8, [&] { ++ran; });    // local: uninspected
  ft.send(1, 99, "dolr.read", 8, [&] { ++ran; }); // unregistered: uninspected
  ft.send(1, 2, "kws.t_query", 8, [&] { ++ran; }); // seq 0: dropped
  clock.run();
  EXPECT_EQ(ran.load(), 1);  // only the local send delivered
  EXPECT_EQ(ft.wire_seq(), 1u);
  EXPECT_EQ(ft.metrics().counter("net.local"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.dropped.unregistered"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.dropped.fault"), 1u);
}

TEST(FaultPlanPartition, PackRoundTripsAndSidesBisect) {
  const std::uint64_t arg = FaultEvent::pack_partition(700, 5);
  EXPECT_EQ(FaultEvent::partition_span(arg), 700u);
  EXPECT_EQ(FaultEvent::partition_bit(arg), 5u);
  // The bisection is a pure function of (endpoint, bit) and non-trivial:
  // over a modest endpoint range both sides must be populated.
  int side_a = 0, side_b = 0;
  for (EndpointId ep = 1; ep <= 64; ++ep)
    (torture::partition_side(ep, 5) ? side_a : side_b)++;
  EXPECT_GT(side_a, 0);
  EXPECT_GT(side_b, 0);
}

TEST(FaultPlanPartition, CutDropsCrossingLossableTrafficThenHeals) {
  // Cut spans wire seqs [0, 4); find an endpoint pair straddling the cut.
  FaultPlan plan = plan_of(
      {{FaultKind::kPartition, 0, FaultEvent::pack_partition(4, 3)}});
  EndpointId left = 0, right = 0;
  for (EndpointId ep = 1; ep <= 64 && (left == 0 || right == 0); ++ep)
    (torture::partition_side(ep, 3) ? left : right) = ep;
  ASSERT_NE(left, 0u);
  ASSERT_NE(right, 0u);

  sim::EventQueue clock;
  sim::Network inner(clock);
  FaultTransport ft(inner, std::make_unique<FaultInjector>(plan));
  ft.register_endpoint(left);
  ft.register_endpoint(right);
  ft.arm();
  std::atomic<int> ran{0};
  // seq 0: lossable, crosses the cut -> dropped.
  ft.send(left, right, "kws.t_query", 8, [&] { ++ran; });
  // seq 1: crosses the cut but is not loss-tolerant -> passes (the protocol
  // cannot survive losing it, so the injector never cuts it).
  ft.send(left, right, "dolr.insert", 8, [&] { ++ran; });
  // seq 2: lossable, crosses -> dropped.
  ft.send(right, left, "kws.results", 8, [&] { ++ran; });
  // seq 3: lossable but stays on one side -> passes.
  ft.send(left, left, "kws.t_query", 8, [&] { ++ran; });  // local, unnumbered
  ft.send(right, left, "maint.ack", 8, [&] { ++ran; });   // seq 3, crossing
  // seq 4: the cut healed -> passes.
  ft.send(left, right, "kws.t_query", 8, [&] { ++ran; });
  clock.run();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(ft.metrics().counter("net.dropped.fault"), 3u);
}

// The same drop semantics over the real runtime: the dropped frame never
// touches a socket, the delivered one does, and the conservation identity
// the torture harness checks — net.messages == net.delivered + net.lost —
// closes after the transport drains. The decorator is driven from the
// dispatch strand, like all protocol code on a socket runtime.
TEST(FaultTransport, DropAccountingClosesOverTcp) {
  TcpTransport tcp;
  FaultTransport ft(tcp,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDrop, 1, 0}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  ft.arm();
  std::atomic<int> ran{0};
  tcp.schedule_in(0, [&] {
    for (int i = 0; i < 4; ++i)
      ft.send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 1 dropped
  });
  ASSERT_TRUE(tcp.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(ft.metrics().counter("net.messages"), 4u);
  EXPECT_EQ(ft.metrics().counter("net.delivered"), 3u);
  EXPECT_EQ(ft.metrics().counter("net.lost"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.dropped.fault"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.messages"),
            ft.metrics().counter("net.delivered") +
                ft.metrics().counter("net.lost"));
}

TEST(FaultTransport, DelayedRedeliveryIsCoveredByTcpWaitIdle) {
  // A delay rides the inner dispatch strand's scheduler, so wait_idle()
  // cannot return before the deferred message lands.
  TcpTransport tcp;
  FaultTransport ft(tcp,
                    std::make_unique<FaultInjector>(
                        plan_of({{FaultKind::kDelay, 0, 80}})));
  ft.register_endpoint(1);
  ft.register_endpoint(2);
  ft.arm();
  std::atomic<int> ran{0};
  tcp.schedule_in(0, [&] { ft.send(1, 2, "kws.t_cont", 24, [&] { ++ran; }); });
  ASSERT_TRUE(tcp.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(ft.metrics().counter("net.delayed"), 1u);
  EXPECT_EQ(ft.metrics().counter("net.delivered"), 1u);
}

}  // namespace
}  // namespace hkws::net
