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
