// WcgReservoir: seeded determinism, Algorithm-R uniformity, capacity and
// accounting invariants, and time-window eviction.
#include "serve/reservoir.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dm::serve {
namespace {

/// A tiny WCG with `nodes` hosts — node_count() identifies it in snapshots.
dm::core::Wcg make_wcg(std::size_t nodes) {
  dm::core::Wcg wcg;
  for (std::size_t i = 0; i < nodes; ++i) {
    wcg.add_node("h" + std::to_string(i) + ".example");
  }
  return wcg;
}

std::vector<std::size_t> orders(const std::vector<dm::core::Wcg>& wcgs) {
  std::vector<std::size_t> out;
  out.reserve(wcgs.size());
  for (const auto& wcg : wcgs) out.push_back(wcg.node_count());
  return out;
}

TEST(WcgReservoirTest, SampleIsAPureFunctionOfOfferSequenceAndOptions) {
  ReservoirOptions options;
  options.capacity_per_class = 8;
  options.seed = 1234;
  WcgReservoir a(options);
  WcgReservoir b(options);
  for (std::size_t i = 0; i < 200; ++i) {
    const auto wcg = make_wcg(i % 13 + 1);
    const bool infection = (i % 3 == 0);
    const double score = infection ? 0.9 : 0.1;
    EXPECT_EQ(a.offer(wcg, score, infection, 1000 * i),
              b.offer(wcg, score, infection, 1000 * i))
        << "admission decision diverged at offer " << i;
  }
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.offered, sb.offered);
  EXPECT_EQ(sa.admitted, sb.admitted);
  EXPECT_EQ(orders(sa.infections), orders(sb.infections));
  EXPECT_EQ(orders(sa.benign), orders(sb.benign));
}

TEST(WcgReservoirTest, DifferentSeedsSampleDifferently) {
  ReservoirOptions options;
  options.capacity_per_class = 8;
  options.seed = 1;
  WcgReservoir a(options);
  options.seed = 2;
  WcgReservoir b(options);
  for (std::size_t i = 0; i < 400; ++i) {
    a.offer(make_wcg(i % 31 + 1), 0.1, false, i);
    b.offer(make_wcg(i % 31 + 1), 0.1, false, i);
  }
  EXPECT_NE(orders(a.snapshot().benign), orders(b.snapshot().benign));
}

TEST(WcgReservoirTest, CapacityBoundAndAccounting) {
  ReservoirOptions options;
  options.capacity_per_class = 16;
  WcgReservoir reservoir(options);
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    admitted += reservoir.offer(make_wcg(3), 0.5, i % 2 == 0, i);
  }
  EXPECT_EQ(reservoir.offered(), 500u);
  EXPECT_EQ(reservoir.admitted(), admitted);
  EXPECT_LE(reservoir.infection_count(), options.capacity_per_class);
  EXPECT_LE(reservoir.benign_count(), options.capacity_per_class);
  // Streams far longer than capacity fill both classes completely.
  EXPECT_EQ(reservoir.infection_count(), options.capacity_per_class);
  EXPECT_EQ(reservoir.benign_count(), options.capacity_per_class);
  const auto snap = reservoir.snapshot();
  EXPECT_EQ(snap.infections.size(), reservoir.infection_count());
  EXPECT_EQ(snap.benign.size(), reservoir.benign_count());
  EXPECT_EQ(snap.offered, reservoir.offered());
  EXPECT_EQ(snap.admitted, reservoir.admitted());
}

// Algorithm-R uniformity: after offering N items to a capacity-C class, each
// item survives with probability C/N regardless of arrival position.  We
// tag each quarter of the stream with a distinct WCG size and, across many
// independent seeds, expect every quarter to hold ~1/4 of the survivors —
// in particular no recency bias (a broken sampler that keeps the last C
// items would put 100% in the final quarter).
TEST(WcgReservoirTest, SampledPositionsAreUniformAcrossTheStream) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kSeeds = 64;
  std::vector<std::size_t> per_quarter(4, 0);
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    ReservoirOptions options;
    options.capacity_per_class = kCapacity;
    options.seed = 7000 + seed;
    WcgReservoir reservoir(options);
    for (std::size_t i = 0; i < kN; ++i) {
      reservoir.offer(make_wcg(i / (kN / 4) + 1), 0.1, false, i);
    }
    for (const auto& wcg : reservoir.snapshot().benign) {
      ASSERT_GE(wcg.node_count(), 1u);
      ASSERT_LE(wcg.node_count(), 4u);
      ++per_quarter[wcg.node_count() - 1];
    }
  }
  const double total = kSeeds * kCapacity;
  for (std::size_t q = 0; q < 4; ++q) {
    const double fraction = per_quarter[q] / total;
    EXPECT_GT(fraction, 0.15) << "quarter " << q << " under-sampled";
    EXPECT_LT(fraction, 0.35) << "quarter " << q << " over-sampled";
  }
}

TEST(WcgReservoirTest, WindowModeEvictsStaleSamples) {
  ReservoirOptions options;
  options.capacity_per_class = 32;
  options.window_s = 10.0;
  WcgReservoir reservoir(options);
  // Three bursts at t=0s, t=15s, t=20s.  Eviction runs on every offer, so
  // the first t=15s admission already drops the whole t=0s burst (15s old,
  // window 10s); the t=20s admission evicts nothing further.
  for (std::size_t i = 0; i < 4; ++i) reservoir.offer(make_wcg(1), 0.1, false, 0);
  EXPECT_EQ(reservoir.benign_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    reservoir.offer(make_wcg(2), 0.1, false, 15'000'000);
  }
  EXPECT_EQ(reservoir.benign_count(), 4u);
  reservoir.offer(make_wcg(3), 0.1, false, 20'000'000);
  const auto snap = reservoir.snapshot();
  for (const auto& wcg : snap.benign) {
    EXPECT_NE(wcg.node_count(), 1u)
        << "a sample from the evicted t=0 burst survived the window";
  }
  EXPECT_EQ(snap.benign.size(), 5u);  // the t=15s burst + the new admission
}

TEST(WcgReservoirTest, PureReservoirNeverEvictsByTime) {
  ReservoirOptions options;
  options.capacity_per_class = 32;
  options.window_s = 0.0;
  WcgReservoir reservoir(options);
  reservoir.offer(make_wcg(1), 0.1, false, 0);
  reservoir.offer(make_wcg(2), 0.1, false, 3'600'000'000ULL);  // an hour later
  EXPECT_EQ(reservoir.benign_count(), 2u);
}

}  // namespace
}  // namespace dm::serve
