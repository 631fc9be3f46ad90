// Micro-benchmarks (google-benchmark) for the primitives every operation is
// built from: hashing, hypercube math, SBT traversal, index-table access,
// searches, DHT lookups, and the simulator's event queue and message path.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "cube/sbt.hpp"
#include "analysis/occupancy.hpp"
#include "dht/chord_network.hpp"
#include "dht/pastry_network.hpp"
#include "index/keyword_hash.hpp"
#include "index/logical_index.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace {

using namespace hkws;

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 0x12345;
  for (auto _ : state) benchmark::DoNotOptimize(x = mix64(x));
}
BENCHMARK(BM_Mix64);

void BM_HashKeyword(benchmark::State& state) {
  const std::string word = "telecommunication";
  for (auto _ : state)
    benchmark::DoNotOptimize(hash_bytes(word, seeds::kKeywordHash));
}
BENCHMARK(BM_HashKeyword);

void BM_ResponsibleNode(benchmark::State& state) {
  index::KeywordHasher hasher(static_cast<int>(state.range(0)));
  const KeywordSet keywords(
      {"isp", "telecom", "network", "download", "news", "tv", "sports"});
  for (auto _ : state)
    benchmark::DoNotOptimize(hasher.responsible_node(keywords));
}
BENCHMARK(BM_ResponsibleNode)->Arg(10)->Arg(16);

void BM_SbtBfsOrder(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  cube::Hypercube cube(r);
  cube::SpanningBinomialTree sbt(cube, 0b11);
  for (auto _ : state) benchmark::DoNotOptimize(sbt.bfs_order());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sbt.size()));
}
BENCHMARK(BM_SbtBfsOrder)->Arg(10)->Arg(14);

void BM_SubcubeEnumeration(benchmark::State& state) {
  cube::Hypercube cube(static_cast<int>(state.range(0)));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    cube.for_each_in_subcube(0b101, [&](cube::CubeId w) { acc ^= w; });
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SubcubeEnumeration)->Arg(10)->Arg(14);

index::LogicalIndex& bench_index() {
  static index::LogicalIndex idx = [] {
    index::LogicalIndex built({.r = 10});
    Rng rng(5);
    for (ObjectId o = 1; o <= 20000; ++o) {
      std::vector<Keyword> words;
      const int n = 1 + static_cast<int>(rng.next_below(9));
      for (int i = 0; i < n; ++i)
        words.push_back("kw" + std::to_string(rng.next_below(5000)));
      built.insert(o, KeywordSet(std::move(words)));
    }
    return built;
  }();
  return idx;
}

void BM_IndexInsertRemove(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet k({"bench", "insert", "remove"});
  ObjectId o = 1000000;
  for (auto _ : state) {
    idx.insert(o, k);
    idx.remove(o, k);
    ++o;
  }
}
BENCHMARK(BM_IndexInsertRemove);

void BM_PinSearch(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet k({"kw1", "kw2"});
  for (auto _ : state) benchmark::DoNotOptimize(idx.pin_search(k));
}
BENCHMARK(BM_PinSearch);

void BM_SupersetSearchThreshold(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet q({"kw1"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx.superset_search(q, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_SupersetSearchThreshold)->Arg(10)->Arg(100)->Arg(0);

void BM_TraversalProfile(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet q({"kw2", "kw3"});
  for (auto _ : state) benchmark::DoNotOptimize(idx.traversal_profile(q));
}
BENCHMARK(BM_TraversalProfile);

void BM_ChordLookup(benchmark::State& state) {
  static sim::EventQueue clock;
  static sim::Network net(clock);
  static dht::ChordNetwork dht = dht::ChordNetwork::build(
      net, static_cast<std::size_t>(1024), {});
  const auto ids = dht.live_ids();
  Rng rng(7);
  for (auto _ : state) {
    const auto key = dht.space().clamp(rng.next_u64());
    const auto start = ids[rng.next_below(ids.size())];
    benchmark::DoNotOptimize(dht.lookup_now(start, key, "bench"));
  }
}
BENCHMARK(BM_ChordLookup);

void BM_PastryLookup(benchmark::State& state) {
  static sim::EventQueue clock;
  static sim::Network net(clock);
  static dht::PastryNetwork dht = dht::PastryNetwork::build(
      net, static_cast<std::size_t>(1024), {});
  const auto ids = dht.live_ids();
  Rng rng(7);
  for (auto _ : state) {
    const auto key = dht.space().clamp(rng.next_u64());
    const auto start = ids[rng.next_below(ids.size())];
    benchmark::DoNotOptimize(dht.lookup_now(start, key, "bench"));
  }
}
BENCHMARK(BM_PastryLookup);

void BM_OccupancyDistribution(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::occupancy_distribution(
        static_cast<int>(state.range(0)), 7));
}
BENCHMARK(BM_OccupancyDistribution)->Arg(10)->Arg(32);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int acc = 0;
    for (int i = 0; i < 1000; ++i)
      q.schedule_in(static_cast<sim::Time>(i % 17), [&acc] { ++acc; });
    q.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

// One simulated message: Network::send (ledger, latency draw, delivery
// event) plus popping and running its delivery.
void BM_SimMessage(benchmark::State& state) {
  sim::EventQueue clock;
  sim::Network net(clock);
  net.register_endpoint(1);
  net.register_endpoint(2);
  const std::string kind = "kws.t_query";
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    net.send(1, 2, kind, 64, [&delivered] { ++delivered; });
    clock.step();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimMessage);

// Arm and cancel a protocol guard timer (the retransmission timer of a
// step answered in time) among 1000 pending events.
void BM_TimerSetCancel(benchmark::State& state) {
  sim::EventQueue q;
  for (int i = 0; i < 1000; ++i)
    q.schedule_in(static_cast<sim::Time>(1000000 + i), [] {});
  for (auto _ : state) {
    const auto id = q.set_timer(50, [] {});
    benchmark::DoNotOptimize(q.cancel_timer(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerSetCancel);

}  // namespace
