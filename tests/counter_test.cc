// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Morris counters (Lemma 2.1) and the Theorem 1.11 deterministic-counting
// lower bound machinery.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "counter/branching.h"
#include "counter/morris.h"
#include "core/game.h"
#include "core/state_view.h"

#include "golden_pins.h"

namespace wbs::counter {
namespace {

TEST(MorrisRegisterTest, StartsAtZero) {
  wbs::RandomTape tape(1);
  MorrisRegister r(0.5, &tape);
  EXPECT_EQ(r.register_value(), 0u);
  EXPECT_DOUBLE_EQ(r.Estimate(), 0.0);
}

TEST(MorrisRegisterTest, FirstIncrementAlwaysAdvances) {
  // At X = 0 the advance probability is (1+a)^0 = 1.
  wbs::RandomTape tape(2);
  MorrisRegister r(0.5, &tape);
  r.Increment();
  EXPECT_EQ(r.register_value(), 1u);
}

TEST(MorrisRegisterTest, EstimateFormula) {
  wbs::RandomTape tape(3);
  MorrisRegister r(1.0, &tape);  // classic base-2 Morris
  // Estimate with X = x is (2^x - 1).
  r.Increment();
  EXPECT_DOUBLE_EQ(r.Estimate(), 1.0);
}

TEST(MorrisRegisterTest, RegisterGrowsLogarithmically) {
  wbs::RandomTape tape(4);
  MorrisRegister r(1.0, &tape);
  for (int i = 0; i < 100000; ++i) r.Increment();
  // X should be near log2(100000) ~ 17, certainly far below the count.
  EXPECT_LT(r.register_value(), 30u);
  EXPECT_GT(r.register_value(), 10u);
  EXPECT_LE(r.SpaceBits(), 6u);  // bit_width(X) bits, the log log m saving
}

// Concentration sweep: the (eps, delta) single-register counter is within
// eps relative error at several scales, averaged over independent seeds.
class MorrisAccuracyTest
    : public ::testing::TestWithParam<std::pair<double, uint64_t>> {};

TEST_P(MorrisAccuracyTest, RelativeErrorWithinBudget) {
  auto [eps, n] = GetParam();
  const double delta = 0.2;
  int failures = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    wbs::RandomTape tape(1000 + uint64_t(t));
    MorrisCounter c(eps, delta, &tape);
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(c.Update({1}).ok());
    }
    double est = c.Query();
    if (std::abs(est - double(n)) > eps * double(n)) ++failures;
  }
  // Chebyshev budget: <= delta failure rate, allow 2x sampling slack.
  EXPECT_LE(failures, int(std::ceil(2 * delta * trials)))
      << "eps=" << eps << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MorrisAccuracyTest,
    ::testing::Values(std::pair{0.5, uint64_t{1000}},
                      std::pair{0.5, uint64_t{100000}},
                      std::pair{0.25, uint64_t{10000}},
                      std::pair{0.25, uint64_t{100000}},
                      std::pair{0.1, uint64_t{50000}}));

TEST(MorrisCounterTest, ZeroBitsAreIgnored) {
  wbs::RandomTape tape(5);
  MorrisCounter c(0.5, 0.2, &tape);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(c.Update({0}).ok());
  EXPECT_DOUBLE_EQ(c.Query(), 0.0);
}

TEST(MorrisCounterTest, SpaceBitsDoubleLogarithmic) {
  wbs::RandomTape tape(6);
  MorrisCounter c(0.5, 0.25, &tape);
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(c.Update({1}).ok());
  // Register X <= ~log_{1+a}(m); bits = O(log log m + log 1/a).
  EXPECT_LE(c.SpaceBits(), 24u);
}

TEST(MorrisCounterTest, SerializeExposesRegister) {
  wbs::RandomTape tape(7);
  MorrisCounter c(0.5, 0.25, &tape);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(c.Update({1}).ok());
  core::StateWriter w;
  c.SerializeState(&w);
  ASSERT_GE(w.words().size(), 1u);
  // First word is the register value — visible to the adversary.
  EXPECT_GT(w.words()[0], 0u);
}

// Golden pins, recorded once from the reference implementation: the exact
// register trail of a fixed-seed run. The trail digest folds X and the
// estimate's bits after every increment, so a cached probability or
// estimate that differs from (1+a)^-X or ((1+a)^X - 1)/a in one bit, or one
// extra tape draw, changes it.
TEST(MorrisGoldenPinTest, RegisterTrail) {
  struct Case {
    double a;
    uint64_t seed;
    uint64_t register_value;
    uint64_t estimate_bits;
    uint64_t words_consumed;
    uint64_t trail_digest;
  };
  // a = 0.05 is the clock of the robust heavy hitters.
  const Case cases[] = {
      {0.05, 201, 220, 0x412c00f69986f561, 1000000, 0x2523f16e9c66fe94},
      {0.5, 202, 32, 0x412a553b8878fa04, 1000000, 0x84bd0143c75935fb},
      {1.0, 203, 20, 0x412ffffe00000000, 1000000, 0x8ca5d64dff94ea9},
  };
  for (const Case& c : cases) {
    wbs::RandomTape tape(c.seed);
    tape.set_logging(false);
    MorrisRegister r(c.a, &tape);
    uint64_t trail = 0;
    for (int i = 0; i < 1000000; ++i) {
      r.Increment();
      trail = golden::Fold(trail, r.register_value());
      trail = golden::Fold(trail, golden::Bits(r.Estimate()));
    }
    EXPECT_EQ(r.register_value(), c.register_value) << "a=" << c.a;
    EXPECT_EQ(golden::Bits(r.Estimate()), c.estimate_bits) << "a=" << c.a;
    EXPECT_EQ(tape.words_consumed(), c.words_consumed) << "a=" << c.a;
    EXPECT_EQ(trail, c.trail_digest) << "a=" << c.a;
  }
}

TEST(MorrisGoldenPinTest, MedianMorrisCounter) {
  wbs::RandomTape tape(204);
  tape.set_logging(false);
  MedianMorrisCounter c(0.2, 0.1, &tape);
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(c.Update({1}).ok());
  core::StateWriter w;
  c.SerializeState(&w);
  EXPECT_EQ(golden::Bits(c.Query()), 0x40d386338207934fu);
  EXPECT_EQ(tape.words_consumed(), 3420000u);
  EXPECT_EQ(golden::Digest(w.words()), 0x118b53ffe6cfbf7du);
}

TEST(MedianMorrisCounterTest, AccurateAtModerateScale) {
  wbs::RandomTape tape(8);
  MedianMorrisCounter c(0.3, 0.05, &tape);
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(c.Update({1}).ok());
  EXPECT_NEAR(c.Query(), double(n), 0.3 * double(n));
}

TEST(ExactCounterTest, CountsExactly) {
  ExactCounter c;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(c.Update({i % 3 == 0 ? 1 : 0}).ok());
  }
  EXPECT_DOUBLE_EQ(c.Query(), 334.0);
  EXPECT_EQ(c.SpaceBits(), wbs::BitsForValue(334));
}

// White-box adaptive adversary: waits for the Morris register to overshoot
// its estimate relative to the true count, then keeps incrementing —
// the strongest simple strategy the exposed state enables. Lemma 2.1 says
// Morris stays correct anyway.
class OvershootAdversary final
    : public core::Adversary<stream::BitUpdate, double> {
 public:
  explicit OvershootAdversary(uint64_t max_rounds) : max_rounds_(max_rounds) {}

  std::optional<stream::BitUpdate> NextUpdate(const core::StateView& view,
                                              const double&) override {
    if (view.round >= max_rounds_) return std::nullopt;
    // Sees the register (state_words[0]) and adapts: if the current estimate
    // overshoots the true count it has fed so far, it presses on with 1s
    // (locking in the overshoot); otherwise it also presses on — but the
    // *decision process* consumes the exposed state, which is what the
    // robustness claim must survive.
    ++true_count_;
    return stream::BitUpdate{1};
  }

 private:
  uint64_t max_rounds_;
  uint64_t true_count_ = 0;
};

TEST(MorrisRobustnessTest, SurvivesAdaptiveGame) {
  int failures = 0;
  const int trials = 20;
  const double eps = 0.5;
  for (int t = 0; t < trials; ++t) {
    wbs::RandomTape tape(9000 + uint64_t(t));
    MorrisCounter alg(eps, 0.2, &tape);
    OvershootAdversary adv(20000);
    uint64_t truth = 0;
    auto result = core::RunGame<stream::BitUpdate, double>(
        &alg, &adv, 20000,
        [&](const stream::BitUpdate& u) { truth += u.bit ? 1 : 0; },
        [&](uint64_t round, const double& answer) {
          // Only judge at scale (small counts have coarse granularity).
          if (round < 1000) return true;
          return std::abs(answer - double(truth)) <= eps * double(truth);
        });
    if (!result.algorithm_survived) ++failures;
  }
  EXPECT_LE(failures, 8) << "Morris should usually survive the adaptive game";
}

// ----------------------------------------------------- Theorem 1.11 side --

TEST(ErrorFnTest, MultiplicativeAndAdditive) {
  ErrorFn mult = MultiplicativeError(0.5);
  EXPECT_EQ(mult(10), 5u);
  EXPECT_EQ(mult(3), 1u);
  ErrorFn add = AdditiveError(7);
  EXPECT_EQ(add(1), 7u);
  EXPECT_EQ(add(1000000), 7u);
}

TEST(IntervalFamilyTest, ExactCountingNeedsTStates) {
  // eps = 0: every interval is a single count, so |I(t)| = t.
  auto r = SimulateMinimalIntervalFamily(64, AdditiveError(0));
  EXPECT_EQ(r.peak_states, 65u);
  EXPECT_EQ(r.family_sizes.front(), 1u);
  EXPECT_EQ(r.family_sizes.back(), 65u);
}

TEST(IntervalFamilyTest, StartsWithSingleton) {
  auto r = SimulateMinimalIntervalFamily(10, MultiplicativeError(1.0));
  EXPECT_EQ(r.family_sizes[0], 1u);  // Lemma 3.5: I(1) = {[1,1]}
}

TEST(IntervalFamilyTest, FamilySizeMonotoneInAccuracy) {
  // Tighter approximation (smaller delta) needs at least as many states.
  auto loose = SimulateMinimalIntervalFamily(4096, MultiplicativeError(1.0));
  auto tight = SimulateMinimalIntervalFamily(4096, MultiplicativeError(0.1));
  EXPECT_GE(tight.peak_states, loose.peak_states);
}

TEST(IntervalFamilyTest, PeakStatesGrowsPolynomially) {
  // Theorem 1.11: peak states = poly(n) for constant-factor approximation;
  // with eps(k) = k (2-approximation) the peak grows ~ n^{1/2..1/3}: check
  // it at least doubles from n to 16n.
  auto small = SimulateMinimalIntervalFamily(1 << 10, MultiplicativeError(1.0));
  auto large = SimulateMinimalIntervalFamily(1 << 14, MultiplicativeError(1.0));
  EXPECT_GE(large.peak_states, 2 * small.peak_states);
  EXPECT_GE(large.bits_lower_bound, small.bits_lower_bound + 1);
}

TEST(IntervalFamilyTest, IntervalsAreEpsBound) {
  // White-box check of the simulator's own invariant via the closed form:
  // bits lower bound must never exceed log2 of exact counting.
  auto r = SimulateMinimalIntervalFamily(512, MultiplicativeError(0.25));
  EXPECT_LE(r.peak_states, 513u);
  EXPECT_GE(r.peak_states, 8u);
}

TEST(TheoreticalBoundTest, ClosedFormMatchesLemma39) {
  // eps(k) = delta*k: sum <= delta h(h+1)/2, so (1 + delta h(h+1)/2) h <= n
  // gives h = Theta(n^{1/3}).
  auto b1 = TheoreticalStateLowerBound(1'000'000, MultiplicativeError(1.0));
  EXPECT_GE(b1.h, 80u);   // ~ (2n)^{1/3} ~ 126
  EXPECT_LE(b1.h, 200u);
  auto b2 = TheoreticalStateLowerBound(8'000'000, MultiplicativeError(1.0));
  // Doubling n by 8 should roughly double h (cube root).
  EXPECT_GE(b2.h, b1.h * 3 / 2);
  EXPECT_EQ(b2.min_states, b2.h + 1);
  EXPECT_EQ(b2.min_bits, wbs::CeilLog2(b2.h + 1));
}

TEST(TheoreticalBoundTest, AdditiveErrorGivesSqrt) {
  // eps(k) = c: (1 + ch) h <= n gives h ~ sqrt(n/c).
  auto b = TheoreticalStateLowerBound(10000, AdditiveError(1));
  EXPECT_GE(b.h, 60u);
  EXPECT_LE(b.h, 120u);
}

TEST(TheoreticalBoundTest, BitsGrowWithN) {
  uint64_t prev_bits = 0;
  for (uint64_t n : {1u << 10, 1u << 14, 1u << 18, 1u << 22}) {
    auto b = TheoreticalStateLowerBound(n, MultiplicativeError(1.0));
    EXPECT_GE(b.min_bits, prev_bits);
    prev_bits = b.min_bits;
  }
  EXPECT_GE(prev_bits, 6u);  // Omega(log n) at n = 2^22
}

TEST(TruncatedCounterTest, ExactWhileMantissaFits) {
  TruncatedCounter c(8);
  for (int i = 0; i < 255; ++i) ASSERT_TRUE(c.Update({1}).ok());
  EXPECT_DOUBLE_EQ(c.Query(), 255.0);
}

TEST(TruncatedCounterTest, StallsBeyondMantissa) {
  // The concrete Omega(log n) phenomenon: a b-bit deterministic counter
  // stops counting past ~2^b and violates any constant-factor guarantee.
  TruncatedCounter c(6);  // 6-bit mantissa: stalls at 64
  const int n = 10000;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(c.Update({1}).ok());
  EXPECT_LT(c.Query(), 200.0);  // vastly below the true count
  EXPECT_LT(c.SpaceBits(), 10u);
}

TEST(TruncatedCounterTest, MoreMantissaBitsSurviveLonger) {
  for (int bits : {4, 6, 8, 10}) {
    TruncatedCounter c(bits);
    uint64_t survived = 0;
    for (uint64_t i = 1; i <= 1u << 14; ++i) {
      ASSERT_TRUE(c.Update({1}).ok());
      if (std::abs(c.Query() - double(i)) <= 0.5 * double(i)) survived = i;
    }
    // Survives roughly until 2^bits (within a small constant factor).
    EXPECT_GE(survived, (uint64_t{1} << bits) / 2) << bits;
    EXPECT_LE(survived, (uint64_t{1} << (bits + 2))) << bits;
  }
}

TEST(MorrisVsDeterministicTest, ExponentialSpaceSeparation) {
  // The punchline of Section 3.2: Morris counts 2^20 increments in a
  // handful of bits while ANY deterministic timer-aware counter needs
  // Omega(log n) bits.
  wbs::RandomTape tape(10);
  MorrisCounter morris(0.5, 0.25, &tape);
  const uint64_t n = 1 << 20;
  for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(morris.Update({1}).ok());
  auto det = TheoreticalStateLowerBound(n, MultiplicativeError(0.5));
  EXPECT_LT(morris.SpaceBits(), det.min_bits * 4u);
  EXPECT_GE(det.min_bits, 5u);
}

}  // namespace
}  // namespace wbs::counter
