// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Heavy hitters: Misra-Gries / SpaceSaving invariants, BernMG (Algorithm 1),
// the robust Algorithm 2 (Theorem 1.1), the CRHF variant (Theorem 1.2), and
// inner-product estimation (Corollary 2.8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>

#include "common/random.h"
#include "core/state_view.h"
#include "heavyhitters/crhf_hh.h"
#include "heavyhitters/inner_product.h"
#include "heavyhitters/misra_gries.h"
#include "heavyhitters/robust_hh.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

#include "golden_pins.h"

namespace wbs::hh {
namespace {

// ------------------------------------------------------------ MisraGries --

TEST(MisraGriesTest, SmallStreamExact) {
  MisraGries mg(4);
  for (uint64_t v : {1u, 2u, 1u, 3u, 1u}) mg.Add(v);
  EXPECT_EQ(mg.Estimate(1), 3u);
  EXPECT_EQ(mg.Estimate(2), 1u);
  EXPECT_EQ(mg.Estimate(4), 0u);
}

TEST(MisraGriesTest, UnderestimatesNeverOverestimate) {
  wbs::RandomTape tape(1);
  auto s = stream::ZipfStream(1000, 5000, 1.1, &tape);
  stream::FrequencyOracle truth(1000);
  truth.AddStream(s);
  MisraGries mg(16);
  for (const auto& u : s) mg.Add(u.item);
  for (const auto& [item, f] : truth.frequencies()) {
    EXPECT_LE(mg.Estimate(item), uint64_t(f)) << item;
  }
}

// The defining Theorem 2.2 invariant across workloads and capacities.
class MgErrorBoundTest
    : public ::testing::TestWithParam<std::pair<size_t, uint64_t>> {};

TEST_P(MgErrorBoundTest, AdditiveErrorAtMostMOverK1) {
  auto [k, m] = GetParam();
  wbs::RandomTape tape(k * 31 + m);
  auto s = stream::ZipfStream(1 << 14, m, 1.05, &tape);
  stream::FrequencyOracle truth(1 << 14);
  truth.AddStream(s);
  MisraGries mg(k);
  for (const auto& u : s) mg.Add(u.item);
  const double bound = double(m) / double(k + 1);
  EXPECT_LE(mg.ErrorBound(), bound + 1e-9);
  for (const auto& [item, f] : truth.frequencies()) {
    EXPECT_GE(double(mg.Estimate(item)), double(f) - bound - 1e-9) << item;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MgErrorBoundTest,
    ::testing::Values(std::pair<size_t, uint64_t>{4, 2000},
                      std::pair<size_t, uint64_t>{8, 2000},
                      std::pair<size_t, uint64_t>{16, 10000},
                      std::pair<size_t, uint64_t>{64, 10000},
                      std::pair<size_t, uint64_t>{128, 50000}));

TEST(MisraGriesTest, TracksAtMostK) {
  MisraGries mg(8);
  wbs::RandomTape tape(2);
  for (int i = 0; i < 1000; ++i) mg.Add(tape.UniformInt(1u << 20));
  EXPECT_LE(mg.tracked(), 8u);
  EXPECT_LE(mg.List().size(), 8u);
}

TEST(MisraGriesTest, WeightedUpdates) {
  MisraGries mg(4);
  mg.Add(7, 100);
  mg.Add(8, 1);
  EXPECT_EQ(mg.Estimate(7), 100u);
  EXPECT_EQ(mg.processed(), 101u);
}

TEST(MisraGriesTest, WeightedEvictionKeepsInvariant) {
  MisraGries mg(2);
  mg.Add(1, 10);
  mg.Add(2, 10);
  mg.Add(3, 5);  // eviction round(s)
  EXPECT_GE(double(mg.Estimate(1)), 10.0 - mg.ErrorBound() - 1e-9);
  EXPECT_GE(double(mg.Estimate(2)), 10.0 - mg.ErrorBound() - 1e-9);
}

TEST(MisraGriesTest, SpaceBitsScalesWithUniverseAndCounts) {
  MisraGries mg(4);
  mg.Add(3, 1000);
  uint64_t small_universe = mg.SpaceBits(16);
  uint64_t big_universe = mg.SpaceBits(uint64_t{1} << 40);
  EXPECT_LT(small_universe, big_universe);
  EXPECT_EQ(big_universe, 40 + wbs::BitsForValue(1000));
}

TEST(MisraGriesTest, WorstCaseSpaceBitsFormula) {
  EXPECT_EQ(MisraGries::WorstCaseSpaceBits(10, uint64_t{1} << 20,
                                           uint64_t{1} << 30),
            10u * (20 + 31));
}

// ----------------------------------------------------------- SpaceSaving --

TEST(SpaceSavingTest, OverestimatesNeverUnderestimate) {
  wbs::RandomTape tape(3);
  auto s = stream::ZipfStream(500, 3000, 1.1, &tape);
  stream::FrequencyOracle truth(500);
  truth.AddStream(s);
  SpaceSaving ss(16);
  for (const auto& u : s) ss.Add(u.item);
  for (const auto& [item, f] : truth.frequencies()) {
    EXPECT_GE(ss.Estimate(item), uint64_t(f)) << item;
  }
}

TEST(SpaceSavingTest, ErrorAtMostMOverK) {
  wbs::RandomTape tape(4);
  auto s = stream::UniformStream(100, 4000, &tape);
  SpaceSaving ss(40);
  for (const auto& u : s) ss.Add(u.item);
  EXPECT_LE(ss.MaxError(), 4000u / 40u + 1);
}

TEST(SpaceSavingTest, HeavyItemAlwaysTracked) {
  wbs::RandomTape tape(5);
  std::vector<uint64_t> planted;
  auto s = stream::PlantedHeavyHitterStream(1 << 16, 5000, 2, 0.2, &tape,
                                            &planted);
  SpaceSaving ss(10);
  for (const auto& u : s) ss.Add(u.item);
  auto list = ss.List();
  for (uint64_t id : planted) {
    bool found = false;
    for (const auto& wi : list) found |= wi.item == id;
    EXPECT_TRUE(found) << id;
  }
}

// ---------------------------------------------------------------- BernMG --

TEST(BernMGTest, RecoversPlantedHeavyHitters) {
  const uint64_t m = 50000;
  const double eps = 0.1;
  int recall_failures = 0;
  for (int trial = 0; trial < 5; ++trial) {
    wbs::RandomTape tape(600 + trial);
    std::vector<uint64_t> planted;
    auto s = stream::PlantedHeavyHitterStream(1 << 20, m, 3, 2 * eps, &tape,
                                              &planted);
    BernMG alg(1 << 20, m, eps, 0.05, &tape);
    for (const auto& u : s) alg.Add(u.item);
    std::set<uint64_t> listed;
    for (const auto& wi : alg.List()) listed.insert(wi.item);
    for (uint64_t id : planted) {
      if (!listed.count(id)) ++recall_failures;
    }
  }
  EXPECT_LE(recall_failures, 1);
}

TEST(BernMGTest, EstimatesScaleBySamplingRate) {
  const uint64_t m = 20000;
  wbs::RandomTape tape(7);
  BernMG alg(1 << 16, m, 0.1, 0.05, &tape);
  for (uint64_t i = 0; i < m; ++i) alg.Add(42);
  EXPECT_NEAR(alg.Estimate(42), double(m), 0.25 * double(m));
}

TEST(BernMGTest, SpaceIndependentOfStreamLength) {
  // The whole point: counters hold SAMPLED counts, so space depends on the
  // sample size ~ log(n)/eps^2, not on m.
  const double eps = 0.25;
  uint64_t space_small = 0, space_large = 0;
  {
    wbs::RandomTape tape(8);
    const uint64_t m = 1 << 12;
    BernMG alg(1 << 16, m, eps, 0.1, &tape);
    for (uint64_t i = 0; i < m; ++i) alg.Add(i % 7);
    space_small = alg.SpaceBits();
  }
  {
    wbs::RandomTape tape(9);
    const uint64_t m = 1 << 20;
    BernMG alg(1 << 16, m, eps, 0.1, &tape);
    for (uint64_t i = 0; i < m; ++i) alg.Add(i % 7);
    space_large = alg.SpaceBits();
  }
  EXPECT_LE(space_large, space_small * 3);
}

// ------------------------------------------------- RobustL1HeavyHitters --

TEST(RobustHhTest, RecoversPlantedHeavyHittersAcrossScales) {
  const double eps = 0.1;
  for (uint64_t m : {2000u, 20000u, 200000u}) {
    int misses = 0;
    for (int trial = 0; trial < 3; ++trial) {
      wbs::RandomTape tape(m + uint64_t(trial));
      std::vector<uint64_t> planted;
      auto s = stream::PlantedHeavyHitterStream(1 << 20, m, 3, 2 * eps, &tape,
                                                &planted);
      RobustL1HeavyHitters alg(1 << 20, eps, 0.25, &tape);
      for (const auto& u : s) ASSERT_TRUE(alg.Update({u.item}).ok());
      std::set<uint64_t> listed;
      for (const auto& wi : alg.Query()) listed.insert(wi.item);
      for (uint64_t id : planted) misses += listed.count(id) ? 0 : 1;
    }
    EXPECT_LE(misses, 2) << "m=" << m;
  }
}

TEST(RobustHhTest, GuessExponentTracksLogOfLength) {
  wbs::RandomTape tape(11);
  const double eps = 0.25;  // base 16/eps = 64
  RobustL1HeavyHitters alg(1 << 16, eps, 0.25, &tape);
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(alg.Update({1}).ok());
  EXPECT_GE(alg.active_guess_exponent(), 2);
  EXPECT_LE(alg.active_guess_exponent(), 4);
}

TEST(RobustHhTest, RejectsOutOfUniverse) {
  wbs::RandomTape tape(12);
  RobustL1HeavyHitters alg(100, 0.2, 0.25, &tape);
  EXPECT_FALSE(alg.Update({100}).ok());
}

TEST(RobustHhTest, SpaceFlatInMWhileMisraGriesGrows) {
  // Theorem 1.1 vs Theorem 2.2: Algorithm 2's space has no log m term —
  // its counters hold SAMPLED counts whose magnitude is m-independent,
  // while Misra-Gries counters grow with m. We verify the slopes: on a
  // concentrated stream, MG's counter widths grow by ~log(m2/m1) bits while
  // the robust algorithm's space stays within a constant.
  const double eps = 0.125;
  auto run_robust = [&](uint64_t m, uint64_t seed) {
    wbs::RandomTape tape(seed);
    RobustL1HeavyHitters alg(1 << 20, eps, 0.25, &tape);
    for (uint64_t i = 0; i < m; ++i) {
      EXPECT_TRUE(alg.Update({i % 7}).ok());  // concentrated: counters grow
    }
    return alg.SpaceBits();
  };
  auto run_mg = [&](uint64_t m) {
    MisraGries mg(size_t(std::ceil(2.0 / eps)));
    for (uint64_t i = 0; i < m; ++i) mg.Add(i % 7);
    return mg.SpaceBits(1 << 20);
  };
  const uint64_t m1 = 1 << 13, m2 = 1 << 21;  // 256x longer stream
  uint64_t robust_growth = 0;
  uint64_t r1 = run_robust(m1, 13), r2 = run_robust(m2, 13);
  robust_growth = r2 > r1 ? r2 - r1 : 0;
  uint64_t mg_growth = run_mg(m2) - run_mg(m1);
  // MG: 7 counters each gain ~8 bits -> ~56; robust: bounded sample sizes.
  EXPECT_GE(mg_growth, 40u);
  EXPECT_LE(robust_growth, mg_growth / 2);
  // And Theorem 2.2's *worst case* formula at production-scale m loses to
  // the robust algorithm's measured (m-independent) footprint:
  uint64_t mg_worst_2_60 = MisraGries::WorstCaseSpaceBits(
      size_t(std::ceil(2.0 / eps)), 1 << 20, uint64_t{1} << 60);
  EXPECT_LT(r2, mg_worst_2_60 * 2);  // within 2x already at 16 counters
}

TEST(RobustHhTest, ListSizeBounded) {
  wbs::RandomTape tape(14);
  const double eps = 0.1;
  RobustL1HeavyHitters alg(1 << 20, eps, 0.25, &tape);
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(alg.Update({uint64_t(i) % 5000}).ok());
  }
  EXPECT_LE(alg.Query().size(), size_t(std::ceil(4.0 / eps)));
}

TEST(RobustHhTest, SerializedStateIsDeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    wbs::RandomTape tape(seed);
    RobustL1HeavyHitters alg(1 << 12, 0.2, 0.25, &tape);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_TRUE(alg.Update({uint64_t(i * i) % 4096}).ok());
    }
    core::StateWriter w;
    alg.SerializeState(&w);
    return w.words();
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

TEST(RobustHhTest, EstimateAdditiveError) {
  const double eps = 0.1;
  wbs::RandomTape tape(15);
  RobustL1HeavyHitters alg(1 << 16, eps, 0.25, &tape);
  stream::FrequencyOracle truth(1 << 16);
  const uint64_t m = 40000;
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t item = (i % 3 == 0) ? 7 : (i % 1000);
    truth.Add(item);
    ASSERT_TRUE(alg.Update({item}).ok());
  }
  double est = alg.Estimate(7);
  EXPECT_NEAR(est, double(truth.Frequency(7)), 3 * eps * double(m));
}

// A simple adaptive white-box adversary: feeds the item the CURRENT summary
// estimates lowest among a fixed candidate set, trying to exploit the
// exposed counters; the planted heavy item must still be reported.
class LowEstimateAdversary final
    : public core::Adversary<stream::ItemUpdate, HhList> {
 public:
  LowEstimateAdversary(const RobustL1HeavyHitters* victim, uint64_t rounds)
      : victim_(victim), rounds_(rounds) {}

  std::optional<stream::ItemUpdate> NextUpdate(const core::StateView& view,
                                               const HhList&) override {
    if (view.round >= rounds_) return std::nullopt;
    if (view.round % 3 == 0) return stream::ItemUpdate{kHeavy};
    uint64_t best = 1;
    double best_est = 1e300;
    for (uint64_t c = 1; c <= 20; ++c) {
      double e = victim_->Estimate(c);
      if (e < best_est) {
        best_est = e;
        best = c;
      }
    }
    return stream::ItemUpdate{best};
  }

  static constexpr uint64_t kHeavy = 999;

 private:
  const RobustL1HeavyHitters* victim_;
  uint64_t rounds_;
};

TEST(RobustHhTest, SurvivesAdaptiveLowEstimateAdversary) {
  int survived = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    wbs::RandomTape tape(1600 + t);
    RobustL1HeavyHitters alg(1 << 10, 0.2, 0.25, &tape);
    LowEstimateAdversary adv(&alg, 30000);
    stream::FrequencyOracle truth(1 << 10);
    auto result = core::RunGame<stream::ItemUpdate, HhList>(
        &alg, &adv, 30000,
        [&](const stream::ItemUpdate& u) { truth.Add(u.item); },
        [&](uint64_t round, const HhList& answer) {
          if (round < 5000) return true;  // let sampling warm up
          for (const auto& wi : answer) {
            if (wi.item == LowEstimateAdversary::kHeavy) return true;
          }
          return false;
        });
    survived += result.algorithm_survived ? 1 : 0;
  }
  EXPECT_GE(survived, 4);
}

// ------------------------------------------------------ CrhfHeavyHitters --

TEST(CrhfHhTest, ReportsPhiHeavyOmitsLight) {
  const double phi = 0.2, eps = 0.1;
  int bad = 0;
  for (int trial = 0; trial < 5; ++trial) {
    wbs::RandomTape tape(1700 + trial);
    CrhfHeavyHitters alg(uint64_t{1} << 40, phi, eps, /*T=*/1 << 20, &tape);
    const uint64_t m = 40000;
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t item;
      if (i % 10 < 3) {
        item = 111111;  // 30%: phi-heavy, must be reported
      } else if (i % 50 == 7) {
        item = 222222;  // 2%: below phi - eps, must not be reported
      } else {
        item = 1000000 + (i * 2654435761ULL) % 1000000;
      }
      ASSERT_TRUE(alg.Update({item}).ok());
    }
    bool heavy_reported = false, light_reported = false;
    for (const auto& wi : alg.Query()) {
      heavy_reported |= wi.item == 111111;
      light_reported |= wi.item == 222222;
    }
    if (!heavy_reported || light_reported) ++bad;
  }
  EXPECT_LE(bad, 1);
}

TEST(CrhfHhTest, HashBitsBoundedByBudgetNotUniverse) {
  wbs::RandomTape tape(18);
  CrhfHeavyHitters alg(uint64_t{1} << 56, 0.2, 0.1, /*T=*/1 << 10, &tape);
  EXPECT_LT(alg.hash_bits(), 56);
  EXPECT_GE(alg.hash_bits(), 8);
}

TEST(CrhfHhTest, HashBitsClampToUniverseWhenSmall) {
  wbs::RandomTape tape(19);
  CrhfHeavyHitters alg(1 << 10, 0.2, 0.1, /*T=*/uint64_t{1} << 20, &tape);
  EXPECT_LE(alg.hash_bits(), 10);
}

TEST(CrhfHhTest, SpaceSmallerThanPlainRobustHhOnHugeUniverse) {
  // Theorem 1.2's saving: the O(1/eps) counter keys cost ~2 log T bits
  // instead of log n; only the O(1/phi) reportable identities pay log n.
  // The saving dominates when 1/eps >> 1/phi and log T << log n.
  const double eps = 0.05, phi = 0.3;
  const uint64_t universe = uint64_t{1} << 56;
  wbs::RandomTape tape1(20), tape2(21);
  CrhfHeavyHitters crhf_alg(universe, phi, eps, /*T=*/1 << 5, &tape1);
  RobustL1HeavyHitters plain_alg(universe, eps, 0.25, &tape2);
  const uint64_t m = 60000;
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t item = (i * 0x9e3779b97f4a7c15ULL) % universe;
    ASSERT_TRUE(crhf_alg.Update({item}).ok());
    ASSERT_TRUE(plain_alg.Update({item}).ok());
  }
  EXPECT_LT(crhf_alg.SpaceBits(), plain_alg.SpaceBits());
}

// ------------------------------------------------------------ golden pins --
//
// Fixed-seed pins of the sampling heavy hitters' exact output, recorded once
// from the reference implementation. Each pins the Query() list (items and
// estimate bits, in order), the Morris clock's register and the active guess
// exponent (read from SerializeState), the tape's draw count, SpaceBits and
// a digest of the whole serialized state. Caching a derived value, skipping
// dead work or batching hashes must leave every field unchanged.

struct HhPin {
  uint64_t list_size = 0;
  uint64_t list_digest = 0;
  uint64_t top_item = 0;
  uint64_t top_estimate_bits = 0;
  uint64_t clock_register = 0;
  uint64_t guess_exponent = 0;
  uint64_t words_consumed = 0;
  uint64_t space_bits = 0;
  uint64_t state_digest = 0;
  bool operator==(const HhPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HhPin& p) {
  return os << std::hex << "{" << p.list_size << ", 0x" << p.list_digest
            << ", 0x" << p.top_item << ", 0x" << p.top_estimate_bits << ", 0x"
            << p.clock_register << ", 0x" << p.guess_exponent << ", 0x"
            << p.words_consumed << ", 0x" << p.space_bits << ", 0x"
            << p.state_digest << "}" << std::dec;
}

/// `exponent_at` is the index of the guess exponent in the serialized
/// state; the Morris register follows it.
HhPin PinOf(const HhList& list, const std::vector<uint64_t>& state,
            size_t exponent_at, const wbs::RandomTape& tape,
            uint64_t space_bits) {
  HhPin p;
  p.list_size = list.size();
  for (const auto& wi : list) {
    p.list_digest = golden::Fold(p.list_digest, wi.item);
    p.list_digest = golden::Fold(p.list_digest, golden::Bits(wi.estimate));
  }
  if (!list.empty()) {
    p.top_item = list.front().item;
    p.top_estimate_bits = golden::Bits(list.front().estimate);
  }
  p.guess_exponent = state.at(exponent_at);
  p.clock_register = state.at(exponent_at + 1);
  p.words_consumed = tape.words_consumed();
  p.space_bits = space_bits;
  p.state_digest = golden::Digest(state);
  return p;
}

TEST(GoldenPinTest, RobustL1HeavyHitters) {
  struct Case {
    double eps;
    uint64_t n;
    uint64_t seed;
    HhPin want;
  };
  // eps = 0.25 (guess base 64) rotates three times in 300k updates.
  const Case cases[] = {
      {0.25, 300000, 101,
       {12, 0x98a3e63bad3079d6, 0x55555, 0x40f530d0eaeab57c, 0xc5, 4,
        900000, 0x110, 0xd061b03bb8cf7cc2}},
      {0.1, 200000, 102,
       {11, 0x86b36816994f1cf8, 0x33334, 0x40e79f7f0d441c79, 0xbd, 3,
        600000, 0x157, 0xa8422488ba5d59f7}},
  };
  for (const Case& c : cases) {
    const uint64_t universe = 1 << 20;
    wbs::RandomTape tape(c.seed);
    tape.set_logging(false);
    RobustL1HeavyHitters alg(universe, c.eps, 0.25, &tape);
    for (uint64_t item : golden::SkewedItems(c.n, universe, c.seed)) {
      ASSERT_TRUE(alg.Update({item}).ok());
    }
    core::StateWriter w;
    alg.SerializeState(&w);
    const HhPin got = PinOf(alg.Query(), w.words(), 0, tape, alg.SpaceBits());
    EXPECT_EQ(got.guess_exponent, uint64_t(alg.active_guess_exponent()));
    EXPECT_EQ(got, c.want) << "eps=" << c.eps;
  }
}

TEST(GoldenPinTest, CrhfHeavyHitters) {
  struct Case {
    uint64_t universe;
    uint64_t n;
    uint64_t seed;
    HhPin want;
  };
  // The skewed stream fills the ceil(2/phi)-entry identity table at once,
  // then offers it both untracked items (estimate 0) and sampled warm items
  // that compete for eviction.
  const Case cases[] = {
      {uint64_t{1} << 40, 150000, 103,
       {2, 0x124f51a7194354f2, 0x5555555555, 0x40e177388570853c, 0xb8, 3,
        450001, 0x637, 0xc674d70a9776fb7f}},
      {uint64_t{1} << 12, 100000, 104,
       {2, 0x90b2c7d9899192e9, 0x334, 0x40d933c195770261, 0xb0, 3, 300001,
        0x20c, 0xb8776bbf7ada9946}},
  };
  for (const Case& c : cases) {
    wbs::RandomTape tape(c.seed);
    tape.set_logging(false);
    CrhfHeavyHitters alg(c.universe, 0.2, 0.1, /*T=*/1 << 20, &tape);
    for (uint64_t item : golden::SkewedItems(c.n, c.universe, c.seed)) {
      ASSERT_TRUE(alg.Update({item}).ok());
    }
    core::StateWriter w;
    alg.SerializeState(&w);
    // State: CRHF salt, output bits, then the inner robust HH state.
    const HhPin got = PinOf(alg.Query(), w.words(), 2, tape, alg.SpaceBits());
    EXPECT_EQ(got, c.want) << "universe=" << c.universe;
  }
}

// ---------------------------------------------- InnerProductEstimator --

class InnerProductTest : public ::testing::TestWithParam<double> {};

TEST_P(InnerProductTest, ErrorWithinEpsL1L1) {
  const double eps = GetParam();
  int failures = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    wbs::RandomTape tape(1800 + t);
    const uint64_t m = 20000;
    InnerProductEstimator est(1 << 12, m, m, eps, &tape);
    stream::FrequencyOracle f(1 << 12), g(1 << 12);
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t a = tape.UniformInt(64);
      uint64_t b = tape.UniformInt(64);
      est.AddF(a);
      est.AddG(b);
      f.Add(a);
      g.Add(b);
    }
    double bound = 12 * eps * double(f.L1()) * double(g.L1());
    if (std::abs(est.Estimate() - double(f.InnerProduct(g))) > bound) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 2) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, InnerProductTest,
                         ::testing::Values(0.05, 0.1, 0.2));

TEST(InnerProductDisjointTest, DisjointSupportsGiveNearZero) {
  wbs::RandomTape tape(22);
  const uint64_t m = 10000;
  InnerProductEstimator est(1 << 12, m, m, 0.1, &tape);
  stream::FrequencyOracle f(1 << 12), g(1 << 12);
  for (uint64_t i = 0; i < m; ++i) {
    est.AddF(i % 100);
    est.AddG(2000 + (i % 100));
    f.Add(i % 100);
    g.Add(2000 + i % 100);
  }
  EXPECT_EQ(f.InnerProduct(g), 0);
  EXPECT_LE(std::abs(est.Estimate()),
            12 * 0.1 * double(f.L1()) * double(g.L1()));
}

}  // namespace
}  // namespace wbs::hh
