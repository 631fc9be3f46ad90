// Message ledger tests: the fate functions close the two identities, and
// identity_error names the one that breaks. Then the socket backends under
// stress: every path that takes a parked message out of flight (the
// deadline sweep, a send error, stop()) records its fate before releasing
// the in-flight slot, so the identities hold the moment wait_idle()
// returns. Each stress loop runs 1000 times; the CI tsan job repeats them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "net/ledger.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "sim/metrics.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kIdle = 5s;
constexpr int kIterations = 1000;

TEST(Ledger, FatesCloseTheIdentities) {
  sim::Metrics m;
  EXPECT_EQ(ledger::identity_error(m), "");
  ledger::local(m);
  ledger::unregistered(m, "dolr.read");
  ledger::sent(m, "kws.t_query", 100);
  ledger::delivered(m);
  ledger::sent(m, "kws.t_query", 100, 140);
  ledger::lost(m, "kws.t_query", ledger::Cause::kFault);
  ledger::sent(m, "kws.results", 10);  // a duplicated message: two copies
  ledger::dup(m);
  ledger::sent(m, "kws.results", 10);
  ledger::delivered(m);
  ledger::lost(m, "kws.results", ledger::Cause::kConn);
  ledger::charged(m, "dht.fix_finger");
  EXPECT_EQ(ledger::identity_error(m), "");

  EXPECT_EQ(m.counter("net.messages"), 5u);
  EXPECT_EQ(m.counter("net.delivered"), 2u);
  EXPECT_EQ(m.counter("net.lost"), 2u);
  EXPECT_EQ(m.counter("net.dup"), 1u);
  EXPECT_EQ(m.counter("net.charged"), 1u);
  EXPECT_EQ(m.counter("net.bytes"), 220u);
  EXPECT_EQ(m.counter("net.wire_bytes"), 140u);
  EXPECT_EQ(m.counter("msg.kws.t_query"), 2u);
  EXPECT_EQ(m.counter("msg.dht.fix_finger"), 1u);
  EXPECT_EQ(m.counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(m.counter("net.lost.kws.results"), 1u);
  EXPECT_EQ(m.counter("net.dropped.fault"), 1u);
  EXPECT_EQ(m.counter("net.dropped.conn"), 1u);
  // net.dropped.<kind> counts unregistered sends only.
  EXPECT_EQ(m.counter("net.dropped"), 1u);
  EXPECT_EQ(m.counter("net.dropped.dolr.read"), 1u);
  EXPECT_EQ(m.counter("net.dropped.kws.t_query"), 0u);
  EXPECT_EQ(m.counter("net.dropped.unregistered"), 1u);
}

TEST(Ledger, IdentityErrorNamesTheBrokenIdentity) {
  sim::Metrics in_flight;
  ledger::sent(in_flight, "kws.t_query", 8);
  EXPECT_EQ(ledger::identity_error(in_flight),
            "net.messages (1) != net.delivered (0) + net.lost (0) + "
            "net.charged (0)");

  sim::Metrics unattributed;
  unattributed.count("net.messages");
  unattributed.count("net.lost");
  EXPECT_EQ(ledger::identity_error(unattributed),
            "net.lost (1) != net.dropped.fault (0) + net.dropped.conn (0)");
}

// The fates every message records write through Metrics counter slots
// cached per registry. These pin that the cache is invisible: reads,
// resets and copies behave as if every fate were a string-keyed count().

// The fates above, recorded the way the string path spells them.
void record_by_name(sim::Metrics& m) {
  m.count("net.local");
  m.count("net.dropped");
  m.count("net.dropped.dolr.read");
  m.count("net.dropped.unregistered");
  for (int i = 0; i < 2; ++i) {
    m.count("net.messages");
    m.count("net.bytes", 100);
    m.count("msg.kws.t_query");
  }
  m.count("net.wire_bytes", 140);
  m.count("net.delivered");
  m.count("net.lost");
  m.count("net.lost.kws.t_query");
  m.count("net.dropped.fault");
  m.count("net.messages");
  m.count("net.charged");
  m.count("msg.dht.fix_finger");
}

void record_through_ledger(sim::Metrics& m) {
  ledger::local(m);
  ledger::unregistered(m, "dolr.read");
  ledger::sent(m, "kws.t_query", 100);
  ledger::delivered(m);
  ledger::sent(m, "kws.t_query", 100, 140);
  ledger::lost(m, "kws.t_query", ledger::Cause::kFault);
  ledger::charged(m, "dht.fix_finger");
}

TEST(LedgerSlots, ReadsMatchTheStringPath) {
  sim::Metrics by_name;
  record_by_name(by_name);
  sim::Metrics slotted;
  record_through_ledger(slotted);
  EXPECT_EQ(slotted.counters(), by_name.counters());
  EXPECT_EQ(slotted.to_string(), by_name.to_string());
  for (const auto& [name, value] : by_name.counters())
    EXPECT_EQ(slotted.counter(name), value) << name;
  // A slot and a count() on the same name share one counter.
  slotted.count("net.messages", 10);
  ledger::sent(slotted, "kws.t_query", 1);
  EXPECT_EQ(slotted.counter("net.messages"), 14u);
  EXPECT_EQ(slotted.counter("msg.kws.t_query"), 3u);
}

TEST(LedgerSlots, CountersRestartAfterReset) {
  sim::Metrics m;
  record_through_ledger(m);
  ledger::sent(m, "kws.t_query", 100);  // still in flight
  EXPECT_NE(ledger::identity_error(m), "");
  m.reset();
  EXPECT_TRUE(m.counters().empty());
  EXPECT_EQ(ledger::identity_error(m), "");
  // The second phase counts from zero into fresh counters, exactly as a
  // fresh registry would.
  record_through_ledger(m);
  sim::Metrics fresh;
  record_through_ledger(fresh);
  EXPECT_EQ(m.counters(), fresh.counters());
  EXPECT_EQ(m.counter("net.messages"), 3u);
  EXPECT_EQ(m.counter("msg.kws.t_query"), 2u);
  EXPECT_EQ(ledger::identity_error(m), "");
  // A phase that records fewer fates leaves the others absent, not stale.
  m.reset();
  ledger::local(m);
  EXPECT_EQ(m.counters().size(), 1u);
  EXPECT_EQ(m.counter("net.local"), 1u);
}

TEST(LedgerSlots, IdentityErrorAfterLostDupAndChargedFates) {
  sim::Metrics m;
  ledger::sent(m, "kws.results", 10);  // duplicated: two wire copies
  ledger::sent(m, "kws.results", 10);
  ledger::dup(m);
  ledger::delivered(m);
  ledger::lost(m, "kws.results", ledger::Cause::kConn);
  ledger::charged(m, "dht.lookup");
  ledger::charged(m, "dht.lookup");
  EXPECT_EQ(ledger::identity_error(m), "");
  EXPECT_EQ(m.counter("net.messages"), 4u);
  EXPECT_EQ(m.counter("net.charged"), 2u);
  EXPECT_EQ(m.counter("msg.dht.lookup"), 2u);
  EXPECT_EQ(m.counter("msg.kws.results"), 2u);
  EXPECT_EQ(m.counter("net.dup"), 1u);

  ledger::sent(m, "kws.results", 10);
  EXPECT_EQ(ledger::identity_error(m),
            "net.messages (5) != net.delivered (1) + net.lost (1) + "
            "net.charged (2)");
  ledger::lost(m, "kws.results", ledger::Cause::kFault);
  EXPECT_EQ(ledger::identity_error(m), "");
  m.count("net.messages");  // a message lost with no cause: conserved,
  m.count("net.lost");      // but not attributed
  EXPECT_EQ(ledger::identity_error(m),
            "net.lost (3) != net.dropped.fault (1) + net.dropped.conn (1)");
}

TEST(LedgerSlots, CopiedOrMovedMetricsCountIntoTheirOwnMap) {
  sim::Metrics original;
  ledger::sent(original, "kws.t_query", 8);  // resolves the slots
  ledger::delivered(original);

  sim::Metrics copy = original;
  ledger::sent(copy, "kws.t_query", 8);
  ledger::delivered(copy);
  EXPECT_EQ(copy.counter("net.messages"), 2u);
  EXPECT_EQ(copy.counter("msg.kws.t_query"), 2u);
  EXPECT_EQ(original.counter("net.messages"), 1u);
  EXPECT_EQ(original.counter("msg.kws.t_query"), 1u);

  sim::Metrics assigned;
  ledger::local(assigned);
  assigned = original;
  ledger::sent(assigned, "kws.t_query", 8);
  ledger::local(assigned);
  EXPECT_EQ(assigned.counter("net.messages"), 2u);
  EXPECT_EQ(assigned.counter("net.local"), 1u);
  EXPECT_EQ(original.counter("net.messages"), 1u);
  EXPECT_EQ(original.counter("net.local"), 0u);

  sim::Metrics moved = std::move(original);
  ledger::sent(moved, "kws.t_query", 8);
  EXPECT_EQ(moved.counter("net.messages"), 2u);
  EXPECT_EQ(moved.counter("msg.kws.t_query"), 2u);
  // The moved-from registry is usable and counts into its own map only.
  original.reset();
  ledger::sent(original, "kws.t_query", 8);
  EXPECT_EQ(original.counter("net.messages"), 1u);
  EXPECT_EQ(moved.counter("net.messages"), 2u);

  sim::Metrics move_assigned;
  ledger::sent(move_assigned, "kws.pin", 8);
  move_assigned = std::move(moved);
  ledger::sent(move_assigned, "kws.pin", 8);
  ledger::delivered(move_assigned);
  EXPECT_EQ(move_assigned.counter("net.messages"), 3u);
  EXPECT_EQ(move_assigned.counter("msg.kws.pin"), 1u);
  EXPECT_EQ(move_assigned.counter("net.delivered"), 2u);
  EXPECT_EQ(copy.counter("net.messages"), 2u);
  EXPECT_EQ(assigned.counter("net.messages"), 2u);
}

template <class T>
typename T::Config fast_config() {
  typename T::Config cfg;
  cfg.tick = std::chrono::microseconds{100};
  return cfg;
}

// Every frame dies on the read side; a zero TTL lets the sweep reclaim each
// parked entry at once, racing the envelope and the wait_idle() caller.
template <class T>
void swept_frames_close_the_identity() {
  typename T::Config cfg = fast_config<T>();
  cfg.parked_ttl = std::chrono::milliseconds{0};
  T t(cfg);
  t.register_endpoint(1);
  t.register_endpoint(2);
  for (int i = 0; i < kIterations; ++i) {
    t.drop_inbound(1);
    t.send(1, 2, "kws.t_query", 64,
           [] { ADD_FAILURE() << "swallowed frame ran"; });
    ASSERT_TRUE(t.wait_idle(kIdle)) << "iteration " << i;
    ASSERT_EQ(ledger::identity_error(t.metrics()), "") << "iteration " << i;
    ASSERT_EQ(t.metrics().counter("net.dropped.conn"),
              static_cast<std::uint64_t>(i + 1));
  }
}

TEST(LedgerStress, TcpSweptFramesCloseTheIdentity) {
  swept_frames_close_the_identity<TcpTransport>();
}

TEST(LedgerStress, UdpSweptFramesCloseTheIdentity) {
  swept_frames_close_the_identity<UdpTransport>();
}

// The send-error path: the wire refuses every frame.
template <class T>
void refused_sends_close_the_identity(T& t) {
  for (int i = 0; i < kIterations; ++i) {
    t.send(1, 2, "kws.t_query", 16,
           [] { ADD_FAILURE() << "refused frame ran"; });
    ASSERT_TRUE(t.wait_idle(kIdle)) << "iteration " << i;
    ASSERT_EQ(ledger::identity_error(t.metrics()), "") << "iteration " << i;
    ASSERT_EQ(t.metrics().counter("net.dropped.conn"),
              static_cast<std::uint64_t>(i + 1));
  }
}

TEST(LedgerStress, TcpSeveredWireCloseTheIdentity) {
  TcpTransport t(fast_config<TcpTransport>());
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.sever_wire();
  refused_sends_close_the_identity(t);
}

TEST(LedgerStress, TcpSendAfterStopClosesTheIdentity) {
  TcpTransport t(fast_config<TcpTransport>());
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.stop();
  refused_sends_close_the_identity(t);
}

TEST(LedgerStress, UdpSendAfterStopClosesTheIdentity) {
  UdpTransport t(fast_config<UdpTransport>());
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.stop();
  refused_sends_close_the_identity(t);
}

// A message still parked when the runtime stops is lost with it, so the
// identities hold after any stop, drained or not.
template <class T>
void stop_records_in_flight_messages_lost() {
  T t(fast_config<T>());  // default TTL: the sweep never fires here
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.drop_inbound(1);
  t.send(1, 2, "kws.t_query", 64,
         [] { ADD_FAILURE() << "swallowed frame ran"; });
  EXPECT_FALSE(t.wait_idle(50ms));
  t.stop();
  EXPECT_EQ(ledger::identity_error(t.metrics()), "");
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 1u);
}

TEST(SocketLedger, TcpStopRecordsInFlightMessagesLost) {
  stop_records_in_flight_messages_lost<TcpTransport>();
}

TEST(SocketLedger, UdpStopRecordsInFlightMessagesLost) {
  stop_records_in_flight_messages_lost<UdpTransport>();
}

}  // namespace
}  // namespace hkws::net
