// The traced run must measure the same simulation it times. On both
// simulator workloads the TimingTransport decorator (and the span clock
// under the engine and service calls) must leave every finished operation —
// engine records, hit sequences, search stats, write acknowledgements — and
// the two model metrics bit-identical. The benchmark's open-loop driver must
// also pace arrivals exactly like engine::LoadDriver.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <gtest/gtest.h>

#include <string>

#include "timing_transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kObjects = 2000;

void expect_identical(const Fingerprint& a, const Fingerprint& b) {
  ASSERT_EQ(a.lines.size(), b.lines.size());
  for (std::size_t i = 0; i < a.lines.size(); ++i)
    ASSERT_EQ(a.lines[i], b.lines[i]) << "operation " << i;
  EXPECT_EQ(a.msgs_per_query, b.msgs_per_query);
  EXPECT_EQ(a.model_p99_ticks, b.model_p99_ticks);
}

TEST(TimingTransport, SimZipfIsBitIdenticalWithAndWithoutIt) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Fingerprint plain = sim_fingerprint("sim-zipf", seed, 600, kObjects,
                                              /*timed=*/false);
    const Fingerprint timed = sim_fingerprint("sim-zipf", seed, 600, kObjects,
                                              /*timed=*/true);
    ASSERT_EQ(plain.lines.size(), 600u);
    EXPECT_GT(plain.msgs_per_query, 0.0);
    EXPECT_GT(plain.model_p99_ticks, 0.0);
    expect_identical(plain, timed);
  }
}

TEST(TimingTransport, SimUniqueWriteIsBitIdenticalWithAndWithoutIt) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Fingerprint plain = sim_fingerprint("sim-unique-write", seed, 300,
                                              kObjects, /*timed=*/false);
    const Fingerprint timed = sim_fingerprint("sim-unique-write", seed, 300,
                                              kObjects, /*timed=*/true);
    ASSERT_EQ(plain.lines.size(), 300u);
    EXPECT_GT(plain.msgs_per_query, 0.0);
    EXPECT_GT(plain.model_p99_ticks, 0.0);
    expect_identical(plain, timed);
  }
}

TEST(TimingTransport, OpenLoopPacesLikeLoadDriver) {
  const Fingerprint ours = sim_fingerprint("sim-zipf", 3, 600, kObjects,
                                           /*timed=*/false);
  const Fingerprint library =
      sim_fingerprint("sim-zipf", 3, 600, kObjects, /*timed=*/false,
                      /*library_driver=*/true);
  expect_identical(ours, library);
}

TEST(TimingTransport, SpansChargeSelfTime) {
  LayerClock clock;
  {
    LayerClock::Span outer(&clock, Layer::kIndex);
    LayerClock::Span inner(&clock, Layer::kSend);
  }
  EXPECT_EQ(clock.spans(Layer::kIndex), 1u);
  EXPECT_EQ(clock.spans(Layer::kSend), 1u);
  EXPECT_EQ(clock.total_ns(),
            clock.self_ns(Layer::kIndex) + clock.self_ns(Layer::kSend));
  LayerClock::Span off(nullptr, Layer::kIndex);  // untraced: a no-op
  EXPECT_EQ(clock.spans(Layer::kIndex), 1u);
}

}  // namespace
}  // namespace perfbench
