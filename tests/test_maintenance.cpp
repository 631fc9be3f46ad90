// Self-healing maintenance plane: heartbeat failure detection, budgeted
// background repair, and convergence — all on the sim event queue, no
// oracle in the detection path.
#include "maint/maintenance.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dht/chord_network.hpp"
#include "index/service.hpp"
#include "net/ledger.hpp"
#include "obs/windowed.hpp"

namespace hkws::maint {
namespace {

using index::KeywordSearchService;

using Options = KeywordSearchService::Options;

/// Service options at r = 6 (small cubes keep these tests fast), adjusted
/// by `tweak`.
Options small_options(const std::function<void(Options&)>& tweak = {}) {
  Options o;
  o.r = 6;
  if (tweak) tweak(o);
  return o;
}

struct Plant {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<KeywordSearchService> service;
  std::unique_ptr<MaintenancePlane> plane;

  explicit Plant(KeywordSearchService::Options opts = small_options(),
                 MaintenancePlane::Config cfg = {}) {
    net = std::make_unique<sim::Network>(clock);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, 24, {}));
    service = std::make_unique<KeywordSearchService>(*dht, opts);
    plane = std::make_unique<MaintenancePlane>(cfg, *dht, *service);
  }

  void seed_corpus() {
    for (ObjectId o = 1; o <= 12; ++o)
      service->publish(2 + (o % 20), o,
                       KeywordSet({"doc", "k" + std::to_string(o % 4)}));
    clock.run();
  }

  /// A holder of an index entry (never the searcher, endpoint 1).
  sim::EndpointId entry_holder() const {
    sim::EndpointId holder = 0;
    service->primary_index().for_each_entry(
        [&](cube::CubeId, const KeywordSet&, ObjectId, sim::EndpointId ep) {
          if (holder == 0 && ep != 1) holder = ep;
        });
    EXPECT_NE(holder, 0u);
    return holder;
  }

  void kill(sim::EndpointId victim) {
    plane->note_true_failure(victim);
    dht->fail(victim);
  }

  sim::EndpointId kill_one_entry_holder() {
    const sim::EndpointId victim = entry_holder();
    kill(victim);
    return victim;
  }

  /// Pumps the clock in bounded windows until pred() or the time budget
  /// runs out (the plane's perpetual timers make clock.run() unusable).
  bool pump_until(const std::function<bool()>& pred,
                  sim::Time budget = 20000) {
    const sim::Time end = clock.now() + budget;
    while (clock.now() < end) {
      if (pred()) return true;
      clock.run_until(clock.now() + 50);
    }
    return pred();
  }
};

TEST(FailureDetector, ConfirmsDeadPeerWithinDetectionWindow) {
  Plant t;
  t.seed_corpus();
  t.plane->start();
  const sim::Time failed_at = t.clock.now();
  t.kill_one_entry_holder();
  const auto& det = t.plane->detector();
  ASSERT_TRUE(t.pump_until([&] { return det.confirmed_count() == 1; }));
  // Probing is round-paced, so the worst case is one period before the
  // first ping, one more period per additional required miss, the final
  // ack timeout, and latency slack.
  const auto& cfg = det.config();
  const sim::Time bound =
      static_cast<sim::Time>(FailureDetector::kConfirmations + 1) * cfg.period +
      cfg.timeout + 8;
  EXPECT_LE(t.clock.now() - failed_at, bound);
  EXPECT_GE(t.net->metrics().sample_count("maint.detect_latency"), 1u);
  t.plane->stop();
  t.clock.run();
}

// The transport fast path: a positive connection-death signal from
// TcpTransport (wired through its peer-down observer) confirms the member
// immediately — no heartbeat rounds, no suspicion ladder — and counts
// maint.transport_down. Unknown endpoints and repeat signals are no-ops.
TEST(FailureDetector, TransportDownConfirmsImmediately) {
  Plant t;
  t.seed_corpus();
  t.plane->start();
  const sim::Time before = t.clock.now();
  const sim::EndpointId victim = t.kill_one_entry_holder();
  auto& det = t.plane->detector();
  det.note_transport_down(victim);
  EXPECT_EQ(det.confirmed_count(), 1u);
  EXPECT_EQ(t.clock.now(), before);  // zero detection latency
  EXPECT_EQ(t.net->metrics().counter("maint.transport_down"), 1u);
  // Already confirmed: a second signal (more frames on the dead wire)
  // changes nothing; neither does a never-monitored endpoint.
  det.note_transport_down(victim);
  det.note_transport_down(9999);
  EXPECT_EQ(det.confirmed_count(), 1u);
  EXPECT_EQ(t.net->metrics().counter("maint.transport_down"), 1u);
  // The plane still heals to convergence off the fast-path confirmation.
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  t.plane->stop();
  t.clock.run();
}

TEST(FailureDetector, NoFalsePositivesOnHealthyNetwork) {
  Plant t;
  t.plane->start();
  t.clock.run_until(t.clock.now() + 5000);
  EXPECT_EQ(t.plane->detector().confirmed_count(), 0u);
  EXPECT_EQ(t.plane->detector().suspected_count(), 0u);
  EXPECT_GT(t.net->metrics().counter("msg.maint.ping"), 0u);
  t.plane->stop();
  t.clock.run();
}

TEST(MaintenancePlane, HealsToConvergenceAfterFailure) {
  obs::WindowedMetrics windows(200);
  // Mirrored: lost primary entries are recoverable from the mirror cube,
  // so a death always leaves real repair work behind.
  Plant t(small_options([](Options& o) { o.mirror_index = true; }));
  t.plane->set_windows(&windows);
  t.seed_corpus();
  t.plane->start();
  t.kill_one_entry_holder();
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  EXPECT_EQ(t.service->repair_backlog(), 0u);
  EXPECT_GT(t.plane->repair_work_done(), 0u);
  // Backlog gauge and confirmation count made it into the windows.
  bool saw_confirm = false;
  for (const auto& [k, w] : windows.windows())
    if (w.counters.contains("detector.confirmed")) saw_confirm = true;
  EXPECT_TRUE(saw_confirm);
  // Post-convergence, searches are complete again.
  std::optional<KeywordSearchService::Answer> answer;
  t.service->search(1, KeywordSet({"doc"}), {},
                    [&](const KeywordSearchService::Answer& a) { answer = a; });
  ASSERT_TRUE(t.pump_until([&] { return answer.has_value(); }));
  EXPECT_TRUE(answer->stats.complete);
  EXPECT_FALSE(answer->stats.failed);
  t.plane->stop();
  t.clock.run();
  // With the queue drained, the ledger identities hold: the plane's
  // synchronous stabilize lookups are recorded as charges.
  EXPECT_EQ(net::ledger::identity_error(t.net->metrics()), "");
  EXPECT_GT(t.net->metrics().counter("net.charged"), 0u);
}

TEST(MaintenancePlane, RepairIsRateLimitedPerTick) {
  MaintenancePlane::Config cfg;
  cfg.entries_per_tick = 1;
  cfg.refs_per_tick = 1;
  Plant t(small_options([](Options& o) { o.mirror_index = true; }), cfg);
  t.seed_corpus();
  t.plane->start();
  t.kill_one_entry_holder();
  const std::size_t initial_backlog = [&] {
    // Let detection finish first so purge creates the backlog.
    t.pump_until([&] { return t.plane->detector().confirmed_count() == 1; });
    return t.service->repair_backlog();
  }();
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  // With budget 1+1 per slice, the work must have been spread over at
  // least backlog/2 repair ticks.
  EXPECT_GE(t.plane->repair_work_done(), initial_backlog);
  t.plane->stop();
  t.clock.run();
}

TEST(MaintenancePlane, StopCancelsEveryTimer) {
  Plant t;
  t.seed_corpus();
  t.plane->start();
  t.kill_one_entry_holder();
  t.clock.run_until(t.clock.now() + 500);
  EXPECT_GT(t.plane->armed_timers(), 0u);
  t.plane->stop();
  EXPECT_EQ(t.plane->armed_timers(), 0u);
  EXPECT_EQ(t.clock.live_timer_count(), 0u);
  // Draining the in-flight deliveries after stop() must be a no-op for the
  // detector (epoch guard) — no new confirmations, no new timers.
  const std::size_t confirmed = t.plane->detector().confirmed_count();
  t.clock.run();
  EXPECT_EQ(t.plane->detector().confirmed_count(), confirmed);
  EXPECT_EQ(t.clock.live_timer_count(), 0u);
}

TEST(MaintenancePlane, TickerDisarmsWhenIdleAndRearmsOnNextDeath) {
  Plant t(small_options([](Options& o) { o.mirror_index = true; }));
  t.seed_corpus();
  t.plane->start();
  t.kill_one_entry_holder();
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  // Give the ticker its idle slices to disarm: only detector timers left.
  t.clock.run_until(t.clock.now() + 2000);
  EXPECT_EQ(t.plane->armed_timers(), t.plane->detector().armed_timers());
  const std::uint64_t work_before = t.plane->repair_work_done();
  t.kill_one_entry_holder();
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  EXPECT_GT(t.plane->repair_work_done(), work_before);
  t.plane->stop();
  t.clock.run();
}

// A false confirmation followed by the real death: the transport reports a
// live peer down, the detector confirms it, and the peer dies only later.
// That death brings no fresh confirmation, yet the plane must still drain
// the backlog it leaves.
TEST(MaintenancePlane, ConvergesWhenAFalselyConfirmedPeerDiesLater) {
  Plant t(small_options([](Options& o) { o.mirror_index = true; }));
  t.seed_corpus();
  t.plane->start();
  const sim::EndpointId victim = t.entry_holder();
  t.plane->detector().note_transport_down(victim);
  EXPECT_EQ(t.plane->detector().confirmed_count(), 1u);
  // Nothing to repair while the peer lives; the idle ticks pass.
  t.clock.run_until(t.clock.now() + 2000);
  EXPECT_TRUE(t.plane->converged());
  t.kill(victim);
  ASSERT_TRUE(t.pump_until([&] { return t.plane->converged(); }));
  EXPECT_EQ(t.service->repair_backlog(), 0u);
  EXPECT_EQ(t.plane->detector().confirmed_count(), 1u);
  t.plane->stop();
  t.clock.run();
}

}  // namespace
}  // namespace hkws::maint
