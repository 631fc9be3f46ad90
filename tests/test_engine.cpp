#include "engine/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dht/chord_network.hpp"
#include "engine/load_driver.hpp"
#include "obs/windowed.hpp"
#include "workload/arrivals.hpp"
#include "workload/query_log.hpp"

namespace hkws::engine {
namespace {

using Options = index::KeywordSearchService::Options;

/// Service options at r = 6 (small cubes keep these tests fast), adjusted
/// by `tweak`.
Options small_options(const std::function<void(Options&)>& tweak = {}) {
  Options o;
  o.r = 6;
  if (tweak) tweak(o);
  return o;
}

// --- Fixture ----------------------------------------------------------------

struct EngineNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<index::KeywordSearchService> service;

  explicit EngineNet(Options opts = small_options(),
                     std::unique_ptr<sim::LatencyModel> latency = nullptr,
                     std::uint64_t seed = 1) {
    net = std::make_unique<sim::Network>(clock, std::move(latency), seed);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, 24, {}));
    service = std::make_unique<index::KeywordSearchService>(*dht, opts);
  }
};

/// Deterministic catalogue over a 6-word vocabulary: every subset query has
/// a brute-force ground truth.
std::vector<KeywordSet> catalogue_sets() {
  const std::vector<std::string> vocab = {"alpha", "beta",    "gamma",
                                          "delta", "epsilon", "zeta"};
  std::vector<KeywordSet> sets;
  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    std::set<std::string> kws;
    const std::size_t want = 2 + rng.next_below(3);  // 2..4 keywords
    while (kws.size() < want) kws.insert(vocab[rng.next_below(vocab.size())]);
    sets.emplace_back(std::vector<Keyword>(kws.begin(), kws.end()));
  }
  return sets;
}

void publish_catalogue(EngineNet& t, const std::vector<KeywordSet>& sets) {
  for (std::size_t i = 0; i < sets.size(); ++i)
    t.service->publish(2 + i % 10, static_cast<ObjectId>(i + 1), sets[i]);
  t.clock.run();
}

std::set<ObjectId> ground_truth(const std::vector<KeywordSet>& sets,
                                const KeywordSet& query) {
  std::set<ObjectId> ids;
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (query.subset_of(sets[i])) ids.insert(static_cast<ObjectId>(i + 1));
  return ids;
}

std::vector<KeywordSet> test_queries() {
  return {
      KeywordSet{"alpha"},
      KeywordSet{"beta"},
      KeywordSet{"gamma"},
      KeywordSet{"delta"},
      KeywordSet{"epsilon"},
      KeywordSet{"zeta"},
      KeywordSet{"alpha", "beta"},
      KeywordSet{"beta", "gamma"},
      KeywordSet{"gamma", "delta"},
      KeywordSet{"delta", "epsilon"},
      KeywordSet{"epsilon", "zeta"},
      KeywordSet{"alpha", "gamma"},
      KeywordSet{"beta", "delta"},
      KeywordSet{"alpha", "beta", "gamma"},
      KeywordSet{"delta", "epsilon", "zeta"},
  };
}

// --- Concurrent interleaved searches ---------------------------------------

TEST(QueryEngine, ConcurrentInterleavedSearchesAreExact) {
  // Randomized per-message latency interleaves N overlapping traversals;
  // a small in-flight cap forces backlog churn on top.
  EngineNet t(small_options(), std::make_unique<sim::UniformLatency>(1, 20),
              99);
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 8;
  cfg.max_backlog = 1000;
  cfg.search.limit = 0;  // exhaustive, so results are comparable
  QueryEngine engine(*t.service, t.clock, cfg);

  const auto queries = test_queries();
  std::vector<KeywordSet> submitted;
  for (int round = 0; round < 2; ++round)
    for (const auto& q : queries) submitted.push_back(q);

  engine.set_on_finished([&](const QueryRecord& rec) {
    EXPECT_EQ(rec.outcome, QueryOutcome::kCompleted);
  });
  for (std::size_t i = 0; i < submitted.size(); ++i)
    engine.submit(1 + i % 5, submitted[i]);
  t.clock.run();

  ASSERT_EQ(engine.records().size(), submitted.size());
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(engine.backlog(), 0u);
  // Hit counts must match brute force; exact ids are checked in the lossy
  // test below through the service directly.
  for (const auto& rec : engine.records()) {
    const std::size_t idx = static_cast<std::size_t>(rec.id - 1);
    EXPECT_EQ(rec.hits, ground_truth(sets, submitted[idx]).size())
        << "query " << submitted[idx].to_string();
    EXPECT_TRUE(rec.stats.complete);
    EXPECT_GE(rec.admitted, rec.submitted);
  }
  const EngineReport report = engine.report();
  EXPECT_EQ(report.completed, submitted.size());
  EXPECT_EQ(report.in_flight_high_water, 8u);
  EXPECT_GT(report.backlog_high_water, 0u);
  EXPECT_FALSE(report.scans_per_peer.empty());
}

// The skew denominator must be the mean over ALL live peers — idle peers
// are exactly what a load-imbalance number has to count. (The old report
// divided by the number of peers that happened to serve a scan, which
// understates the skew whenever part of the ring sits idle.)
TEST(QueryEngine, ScanSkewCountsIdlePeersInTheMean) {
  EngineNet t(small_options());
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  // A narrow repeated query touches only its own subtree's owners, so most
  // of the 24-peer ring serves nothing.
  for (int i = 0; i < 4; ++i)
    engine.submit(1, KeywordSet{"alpha", "beta", "gamma"});
  t.clock.run();

  const EngineReport report = engine.report();
  ASSERT_FALSE(report.scans_per_peer.empty());
  ASSERT_EQ(report.live_peers, 24u);
  const std::size_t serving = report.scans_per_peer.bins().size();
  ASSERT_LT(serving, report.live_peers);

  std::uint64_t max_load = 0;
  for (const auto& [peer, n] : report.scans_per_peer.bins())
    max_load = std::max(max_load, n);
  const double total = static_cast<double>(report.scans_per_peer.total());
  EXPECT_DOUBLE_EQ(
      report.scan_skew_max_over_mean,
      static_cast<double>(max_load) /
          (total / static_cast<double>(report.live_peers)));
  // Strictly larger than the serving-only mean would make it — the exact
  // regression the all-peers denominator fixes.
  EXPECT_GT(report.scan_skew_max_over_mean,
            static_cast<double>(max_load) /
                (total / static_cast<double>(serving)));
  // And the field is exported for the bench/CI gate.
  EXPECT_NE(report.to_json().find("\"scan_skew_max_over_mean\":"),
            std::string::npos);
}

// --- Loss + retransmission --------------------------------------------------

TEST(QueryEngine, LossyNetworkYieldsExactResultsViaRetransmission) {
  EngineNet t(small_options([](Options& o) {
                o.step_timeout = 200;
                o.max_retries = 6;
              }),
              std::make_unique<sim::UniformLatency>(1, 20), 7);
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);  // publish losslessly, then break the network
  t.net->set_drop_model(std::make_unique<sim::BernoulliDrop>(0.08));

  EngineConfig cfg;
  cfg.max_in_flight = 6;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  // Exact result sets observed through the service layer: the engine hook
  // checks outcome, the service callback is exercised by the engine itself,
  // so verify via an independent serial pass afterwards.
  const auto queries = test_queries();
  for (std::size_t i = 0; i < queries.size(); ++i)
    engine.submit(1 + i % 5, queries[i]);
  t.clock.run();

  ASSERT_EQ(engine.records().size(), queries.size());
  for (const auto& rec : engine.records()) {
    ASSERT_EQ(rec.outcome, QueryOutcome::kCompleted);
    const std::size_t idx = static_cast<std::size_t>(rec.id - 1);
    EXPECT_EQ(rec.hits, ground_truth(sets, queries[idx]).size())
        << "query " << queries[idx].to_string();
  }
  // Loss actually happened and was repaired.
  EXPECT_GT(t.net->messages_lost(), 0u);
  EXPECT_GT(engine.report().retransmits, 0u);
  EXPECT_EQ(t.service->primary_index().in_flight_requests(), 0u);
}

// --- Admission control -------------------------------------------------------

TEST(QueryEngine, ShedsWhenBacklogFull) {
  EngineNet t(small_options());
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 2;
  cfg.max_backlog = 2;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  const KeywordSet q{"alpha"};
  for (int i = 0; i < 10; ++i) engine.submit(1, q);
  // Four were accepted (2 in flight + 2 queued); six shed synchronously.
  std::size_t shed = 0;
  for (const auto& rec : engine.records())
    if (rec.outcome == QueryOutcome::kShed) ++shed;
  EXPECT_EQ(shed, 6u);
  EXPECT_EQ(engine.in_flight(), 2u);
  EXPECT_EQ(engine.backlog(), 2u);

  t.clock.run();
  const EngineReport report = engine.report();
  EXPECT_EQ(report.submitted, 10u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.shed, 6u);
  EXPECT_EQ(report.backlog_high_water, 2u);
}

TEST(QueryEngine, PriorityBacklogServesHighPriorityFirst) {
  EngineNet t(small_options());
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 1;
  cfg.max_backlog = 10;
  cfg.policy = BacklogPolicy::kPriority;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  const std::uint64_t filler = engine.submit(1, KeywordSet{"alpha"}, 0);
  const std::uint64_t low = engine.submit(1, KeywordSet{"beta"}, 0);
  const std::uint64_t high = engine.submit(1, KeywordSet{"gamma"}, 5);
  t.clock.run();

  ASSERT_EQ(engine.records().size(), 3u);
  EXPECT_EQ(engine.records()[0].id, filler);
  EXPECT_EQ(engine.records()[1].id, high);  // jumped the FIFO
  EXPECT_EQ(engine.records()[2].id, low);
}

// --- Deadlines ---------------------------------------------------------------

TEST(QueryEngine, DeadlineTimesOutAndCancelsCleanly) {
  EngineNet t(small_options(), std::make_unique<sim::FixedLatency>(10));
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  {
    EngineConfig cfg;
    cfg.max_in_flight = 4;
    cfg.deadline = 5;  // < one network hop: nothing can finish in time
    cfg.search.limit = 0;
    QueryEngine engine(*t.service, t.clock, cfg);
    for (int i = 0; i < 8; ++i) engine.submit(1, KeywordSet{"alpha"});
    t.clock.run();

    ASSERT_EQ(engine.records().size(), 8u);
    for (const auto& rec : engine.records()) {
      EXPECT_EQ(rec.outcome, QueryOutcome::kTimedOut);
      EXPECT_EQ(rec.latency(), 5u);
    }
    EXPECT_EQ(engine.report().timed_out, 8u);
    // Cancellation dropped all coordinator state.
    EXPECT_EQ(t.service->primary_index().in_flight_requests(), 0u);
    EXPECT_EQ(engine.in_flight(), 0u);
  }

  // The service still works after mass cancellation.
  QueryEngine after(*t.service, t.clock,
                    EngineConfig{.max_in_flight = 4, .search = {.limit = 0}});
  after.submit(1, KeywordSet{"alpha"});
  t.clock.run();
  ASSERT_EQ(after.records().size(), 1u);
  EXPECT_EQ(after.records()[0].outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(after.records()[0].hits,
            ground_truth(sets, KeywordSet{"alpha"}).size());
}

TEST(QueryEngine, BacklogEntriesPastDeadlineTimeOutWithoutLaunching) {
  EngineNet t(small_options(), std::make_unique<sim::FixedLatency>(50));
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 1;
  cfg.max_backlog = 10;
  cfg.deadline = 60;  // the in-flight query consumes the whole budget
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);
  for (int i = 0; i < 4; ++i) engine.submit(1, KeywordSet{"alpha"});
  t.clock.run();

  ASSERT_EQ(engine.records().size(), 4u);
  std::size_t timed_out = 0;
  for (const auto& rec : engine.records())
    if (rec.outcome == QueryOutcome::kTimedOut) ++timed_out;
  EXPECT_GE(timed_out, 3u);  // the queued ones can never make it
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(engine.backlog(), 0u);
}

// Regression: the outcome taxonomy is a partition. Every submitted query
// gets exactly one record, the five buckets are disjoint, and they sum to
// submitted. Exercised through the path that used to double-count: a
// priority backlog whose low-priority entries expire while stranded behind
// a stream of high-priority work. Those entries must be reported kTimedOut
// with their *true* expiry time (latency == deadline, never admitted) — not
// silently kept as phantom occupancy that sheds live newcomers, and not
// sealed with the later pop time.
TEST(QueryEngine, BacklogExpiryTaxonomyIsDisjointAndBackdated) {
  const auto sets = catalogue_sets();
  // Measure the (deterministic) cold service time of the probe query.
  sim::Time service_l = 0;
  {
    EngineNet t(small_options([](Options& o) { o.cache_capacity = 0; }),
                std::make_unique<sim::FixedLatency>(10));
    publish_catalogue(t, sets);
    QueryEngine probe(*t.service, t.clock,
                      EngineConfig{.search = {.limit = 0}});
    probe.submit(1, KeywordSet{"alpha"});
    t.clock.run();
    ASSERT_EQ(probe.records().size(), 1u);
    service_l = probe.records()[0].latency();
    ASSERT_GT(service_l, 0u);
  }
  const sim::Time kL = service_l;
  const sim::Time kDeadline = 3 * kL + kL / 2;
  const sim::Time kStop = kDeadline + 2 * kL;  // when the chain stops

  EngineNet t(small_options([](Options& o) { o.cache_capacity = 0; }),
              std::make_unique<sim::FixedLatency>(10));
  publish_catalogue(t, sets);
  EngineConfig cfg;
  cfg.max_in_flight = 1;
  cfg.max_backlog = 2;
  cfg.deadline = kDeadline;
  cfg.policy = BacklogPolicy::kPriority;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  const KeywordSet q{"alpha"};
  // Every completion immediately submits a successor: the single slot is
  // handed from query to query at the completion tick itself (submission
  // beats the backlog pump), so the priority-0 entries B and C stay
  // stranded in the backlog past their deadline.
  engine.set_on_finished([&](const QueryRecord& rec) {
    if (rec.outcome == QueryOutcome::kCompleted && t.clock.now() < kStop)
      engine.submit(1, q, 5);
  });
  engine.submit(1, q, 0);  // A: takes the slot, starts the chain
  std::vector<std::uint64_t> stranded;
  stranded.push_back(engine.submit(1, q, 0));  // B
  stranded.push_back(engine.submit(1, q, 0));  // C
  // Pre-expiry pressure: backlog [B, C] is genuinely full of *live*
  // entries, so this submission must shed.
  std::uint64_t shed_id = 0;
  t.clock.schedule_at(kL + kL / 2, [&] { shed_id = engine.submit(1, q, 5); });
  // Post-expiry pressure: B and C are stale now. The old code shed this
  // live submission against their phantom occupancy; the fix times them
  // out (their true outcome) and admits the newcomer.
  std::uint64_t late_id = 0;
  t.clock.schedule_at(kDeadline + kL, [&] {
    late_id = engine.submit(1, q, 0);
  });
  t.clock.run();

  const EngineReport report = engine.report();
  // Exactly one record per submission; buckets partition the submissions.
  ASSERT_EQ(engine.records().size(), report.submitted);
  EXPECT_EQ(report.completed + report.degraded + report.timed_out +
                report.failed + report.shed,
            report.submitted);
  std::map<QueryOutcome, std::uint64_t> by_outcome;
  for (const auto& rec : engine.records()) ++by_outcome[rec.outcome];
  EXPECT_EQ(by_outcome[QueryOutcome::kCompleted], report.completed);
  EXPECT_EQ(by_outcome[QueryOutcome::kTimedOut], report.timed_out);
  EXPECT_EQ(by_outcome[QueryOutcome::kShed], report.shed);

  EXPECT_EQ(report.timed_out, 2u);            // exactly B and C
  EXPECT_EQ(report.timed_out_in_backlog, 2u); // both expired while queued
  EXPECT_EQ(report.shed, 1u);                 // only the pre-expiry probe
  EXPECT_GE(report.completed, 4u);            // A, chain, and the late query

  ASSERT_NE(shed_id, 0u);
  ASSERT_NE(late_id, 0u);
  for (const auto& rec : engine.records()) {
    const bool is_stranded = std::find(stranded.begin(), stranded.end(),
                                       rec.id) != stranded.end();
    if (is_stranded) {
      // Timed out in the backlog: sealed at the true expiry (latency reads
      // exactly the deadline, not the later sweep time), never admitted.
      EXPECT_EQ(rec.outcome, QueryOutcome::kTimedOut);
      EXPECT_EQ(rec.latency(), kDeadline);
      EXPECT_EQ(rec.admitted, 0u);
    } else if (rec.id == shed_id) {
      EXPECT_EQ(rec.outcome, QueryOutcome::kShed);
    } else {
      EXPECT_EQ(rec.outcome, QueryOutcome::kCompleted)
          << "query " << rec.id;
    }
  }
}

// Pre-fix-failing: high-water marks and the windowed in_flight/backlog
// gauges must track every transition. The old code sampled the windowed
// gauges on submission entry — before the backlog push — so the exported
// peak under-read the true high water.
TEST(QueryEngine, GaugesTrackPeaksOnEveryTransition) {
  EngineNet t(small_options([](Options& o) { o.cache_capacity = 0; }),
              std::make_unique<sim::FixedLatency>(10));
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  obs::WindowedMetrics windows(1u << 30);  // one window spans the whole run
  EngineConfig cfg;
  cfg.max_in_flight = 1;
  cfg.max_backlog = 10;
  cfg.search.limit = 0;
  cfg.windows = &windows;
  QueryEngine engine(*t.service, t.clock, cfg);
  for (int i = 0; i < 4; ++i) engine.submit(1, KeywordSet{"alpha"});
  const EngineReport mid = engine.report();
  EXPECT_EQ(mid.backlog_high_water, 3u);
  t.clock.run();

  const EngineReport report = engine.report();
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.in_flight_high_water, 1u);
  EXPECT_EQ(report.backlog_high_water, 3u);
  double gauge_backlog_max = 0.0;
  double gauge_in_flight_max = 0.0;
  for (const auto& [k, w] : windows.windows()) {
    const auto bl = w.gauges.find("backlog");
    if (bl != w.gauges.end())
      gauge_backlog_max = std::max(gauge_backlog_max, bl->second);
    const auto fl = w.gauges.find("in_flight");
    if (fl != w.gauges.end())
      gauge_in_flight_max = std::max(gauge_in_flight_max, fl->second);
  }
  // The exported peaks agree with the report's high-water marks.
  EXPECT_EQ(gauge_backlog_max,
            static_cast<double>(report.backlog_high_water));
  EXPECT_EQ(gauge_in_flight_max,
            static_cast<double>(report.in_flight_high_water));
}

// --- Adaptive admission ------------------------------------------------------

// Overload recovery: drive the adaptive engine past saturation (sheds and
// in-flight timeouts), then drop the load and assert the backlog drains,
// shedding stops, and the AIMD limit resumes growing — no hysteresis
// lock-up at the floor.
TEST(QueryEngine, AdaptiveAdmissionRecoversAfterOverload) {
  const auto sets = catalogue_sets();
  // Cold (first-ever) and warm (contact caches primed) service latency of
  // the probe query — both deterministic under fixed link latency.
  sim::Time cold_l = 0, warm_l = 0;
  {
    EngineNet t(small_options([](Options& o) { o.cache_capacity = 0; }),
                std::make_unique<sim::FixedLatency>(10));
    publish_catalogue(t, sets);
    QueryEngine probe(*t.service, t.clock,
                      EngineConfig{.search = {.limit = 0}});
    for (int i = 0; i < 3; ++i) {
      probe.submit(1, KeywordSet{"alpha"});
      t.clock.run();
    }
    ASSERT_EQ(probe.records().size(), 3u);
    cold_l = probe.records()[0].latency();
    warm_l = probe.records()[2].latency();
  }
  // The scenario needs cold queries to finish within the deadline while
  // backlogged queries (whose budget the queue wait burned) cannot.
  ASSERT_LT(cold_l, 2 * warm_l);
  ASSERT_GT(cold_l, warm_l);

  EngineNet t(small_options([](Options& o) { o.cache_capacity = 0; }),
              std::make_unique<sim::FixedLatency>(10));
  publish_catalogue(t, sets);
  EngineConfig cfg;
  cfg.max_in_flight = 8;  // the controller's starting point
  cfg.max_backlog = 40;
  cfg.deadline = 2 * warm_l;
  cfg.adaptive.enabled = true;
  cfg.adaptive.min_in_flight = 2;
  cfg.adaptive.max_in_flight = 64;
  cfg.adaptive.latency_target = 2 * warm_l;
  cfg.adaptive.backlog_per_slot = 2.0;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);
  EXPECT_EQ(engine.in_flight_limit(), 8u);
  const sim::Time kL = cold_l;

  // Saturation burst: far more than in-flight + backlog capacity.
  const KeywordSet q{"alpha"};
  for (int i = 0; i < 60; ++i) engine.submit(1, q);
  t.clock.run();

  const EngineReport burst = engine.report();
  EXPECT_GT(burst.shed, 0u);       // admission actually saturated
  EXPECT_GT(burst.timed_out, 0u);  // stale queries timed out, not served
  EXPECT_GT(burst.completed, 0u);
  EXPECT_EQ(burst.completed + burst.degraded + burst.timed_out +
                burst.failed + burst.shed,
            burst.submitted);
  // The overload signal fired at least once.
  EXPECT_GE(engine.metrics().counter("engine.admit_decrease"), 1u);
  EXPECT_EQ(engine.backlog(), 0u);
  EXPECT_EQ(engine.in_flight(), 0u);
  const std::size_t limit_after_burst = engine.in_flight_limit();
  EXPECT_GE(limit_after_burst, cfg.adaptive.min_in_flight);

  // Recovery: a light trickle, well spaced. Everything must complete and
  // the limit must climb again (additive increase still alive).
  const std::uint64_t first_trickle_id = burst.submitted + 1;
  for (sim::Time k = 0; k < 24; ++k)
    t.clock.schedule_at(t.clock.now() + 1 + k * 3 * kL,
                        [&] { engine.submit(1, q); });
  t.clock.run();

  const EngineReport after = engine.report();
  EXPECT_EQ(after.submitted, burst.submitted + 24);
  EXPECT_EQ(after.shed, burst.shed);            // shedding stopped
  EXPECT_EQ(after.timed_out, burst.timed_out);  // no lingering timeouts
  EXPECT_EQ(engine.backlog(), 0u);              // backlog drained
  for (const auto& rec : engine.records())
    if (rec.id >= first_trickle_id)
      EXPECT_EQ(rec.outcome, QueryOutcome::kCompleted);
  EXPECT_GT(engine.in_flight_limit(), limit_after_burst);
}

// --- Trace records -----------------------------------------------------------

TEST(QueryEngine, TraceRecordsCoverQueryLifecycle) {
  EngineNet t(small_options());
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.search.limit = 0;
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  QueryEngine engine(*t.service, t.clock, cfg);
  engine.submit(1, KeywordSet{"alpha"});
  t.clock.run();

  ASSERT_EQ(engine.records().size(), 1u);
  const auto& trace = engine.records()[0].trace;
  auto has = [&](const char* point) {
    return std::any_of(trace.begin(), trace.end(), [&](const TracePoint& p) {
      return std::string(p.point) == point;
    });
  };
  EXPECT_TRUE(has("submit"));
  EXPECT_TRUE(has("admit"));
  EXPECT_TRUE(has("root"));
  EXPECT_TRUE(has("level"));
  EXPECT_TRUE(has("scan"));
  EXPECT_TRUE(has("complete"));
  // Timestamps are monotone.
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].at, trace[i - 1].at);
}

// --- Mirrored service --------------------------------------------------------

TEST(QueryEngine, MirroredServiceSmoke) {
  EngineNet t(small_options([](Options& o) { o.mirror_index = true; }));
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 4;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);
  const auto queries = test_queries();
  for (std::size_t i = 0; i < 6; ++i) engine.submit(1, queries[i]);
  t.clock.run();

  ASSERT_EQ(engine.records().size(), 6u);
  for (const auto& rec : engine.records()) {
    EXPECT_EQ(rec.outcome, QueryOutcome::kCompleted);
    const std::size_t idx = static_cast<std::size_t>(rec.id - 1);
    EXPECT_EQ(rec.hits, ground_truth(sets, queries[idx]).size());
  }
}

// --- Degraded-mode SLO accounting --------------------------------------------

// Regression for the outcome split: deadline misses (kTimedOut), protocol
// give-ups (kFailed), and failover-served answers (kDegraded) must land in
// separate report buckets. The degraded bucket is produced
// deterministically via the stale-contact failover path: a first round of
// queries warms the per-peer contact caches, then a contacted peer dies
// *without any repair* — the next traversal that reaches for the cached
// contact finds it stale, re-routes to the surrogate owner, and the answer
// is flagged degraded instead of failing.
TEST(QueryEngine, DegradedOutcomesAccountedSeparately) {
  const auto sets = catalogue_sets();
  const auto queries = test_queries();
  // The right victim depends on the placement hashes, so scan candidates
  // deterministically until one of them degrades at least one query.
  for (sim::EndpointId victim = 2; victim <= 24; ++victim) {
    // Query caching off: round two must re-traverse, not answer from cache.
    EngineNet t(small_options([](Options& o) {
                  o.mirror_index = true;
                  o.cache_capacity = 0;
                  o.step_timeout = 200;
                  o.max_retries = 2;
                }),
                std::make_unique<sim::UniformLatency>(1, 20), 7);
    publish_catalogue(t, sets);

    EngineConfig cfg;
    cfg.max_in_flight = 4;
    cfg.search.limit = 0;
    QueryEngine engine(*t.service, t.clock, cfg);
    for (std::size_t i = 0; i < queries.size(); ++i)
      engine.submit(1, queries[i]);  // warm contact caches
    t.clock.run();
    t.dht->fail(victim);
    for (std::size_t i = 0; i < queries.size(); ++i)
      engine.submit(1, queries[i]);  // these hit stale contacts
    t.clock.run();

    const EngineReport report = engine.report();
    if (report.degraded == 0) continue;  // victim was never a contact

    ASSERT_EQ(engine.records().size(), 2 * queries.size());
    EXPECT_EQ(report.completed + report.degraded + report.failed,
              report.submitted);
    EXPECT_EQ(report.timed_out, 0u);
    EXPECT_EQ(report.shed, 0u);
    std::uint64_t degraded = 0, completed = 0;
    for (const auto& rec : engine.records()) {
      if (rec.outcome == QueryOutcome::kDegraded) {
        ++degraded;
        // Round one is pristine; only post-failure queries may degrade.
        EXPECT_GT(rec.id, queries.size());
        EXPECT_TRUE(rec.stats.degraded);
        EXPECT_FALSE(rec.stats.failed);
        EXPECT_GE(rec.stats.failovers, 1u);
      } else if (rec.outcome == QueryOutcome::kCompleted) {
        ++completed;
        EXPECT_FALSE(rec.stats.degraded);
      }
    }
    EXPECT_EQ(report.degraded, degraded);
    EXPECT_EQ(report.completed, completed);
    // The mid-query failovers behind the degraded answers were counted.
    EXPECT_GE(report.failovers, report.degraded);
    EXPECT_EQ(std::string(to_string(QueryOutcome::kDegraded)), "degraded");
    return;
  }
  FAIL() << "no victim degraded any query; failover path never exercised";
}

// --- Load driver -------------------------------------------------------------

TEST(LoadDriver, ReplaysWholeLogOpenLoop) {
  EngineNet t(small_options());
  const auto sets = catalogue_sets();
  publish_catalogue(t, sets);

  EngineConfig cfg;
  cfg.max_in_flight = 4;
  cfg.search.limit = 0;
  QueryEngine engine(*t.service, t.clock, cfg);

  std::vector<workload::Query> qs;
  const auto queries = test_queries();
  for (std::size_t i = 0; i < 10; ++i)
    qs.push_back({queries[i % queries.size()], i});
  workload::QueryLog log(qs);
  workload::FixedArrivals gaps(5);
  LoadDriver driver(engine, t.clock, {1, 2, 3});
  driver.start(log, gaps);
  t.clock.run();

  EXPECT_TRUE(driver.done());
  EXPECT_EQ(driver.submitted(), 10u);
  ASSERT_EQ(engine.records().size(), 10u);
  for (const auto& rec : engine.records())
    EXPECT_EQ(rec.outcome, QueryOutcome::kCompleted);
  // Open-loop pacing: submissions 5 ticks apart regardless of service.
  std::vector<sim::Time> submits;
  for (const auto& rec : engine.records()) submits.push_back(rec.submitted);
  std::sort(submits.begin(), submits.end());
  for (std::size_t i = 1; i < submits.size(); ++i)
    EXPECT_EQ(submits[i] - submits[i - 1], 5u);
}

TEST(PoissonArrivals, MeanGapMatchesRate) {
  workload::PoissonArrivals arrivals(100.0, 11);  // 100 q/kilotick => mean 10
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    total += static_cast<double>(arrivals.next_gap());
  const double mean_gap = total / n;
  EXPECT_NEAR(mean_gap, 10.0, 0.5);
}

}  // namespace
}  // namespace hkws::engine
