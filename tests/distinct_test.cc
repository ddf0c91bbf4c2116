// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// L0 estimation: Algorithm 5 (SIS chunk sketches, Theorem 1.5) and the
// white-box-breakable baselines (NaiveSumL0, KmvDistinct).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/modmath.h"
#include "common/random.h"
#include "distinct/l0_estimator.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

namespace wbs::distinct {
namespace {

TEST(SisL0ParamsTest, DeriveShapes) {
  SisL0Params p = SisL0Params::Derive(1 << 16, 0.5, 0.25, 1000);
  EXPECT_EQ(p.chunk_width, 256u);   // n^0.5
  EXPECT_EQ(p.num_chunks, 256u);    // n^{1-eps}
  EXPECT_GE(p.sketch_rows, 2u);     // n^{c eps} = 2^{16*0.125} = 4
  EXPECT_TRUE(wbs::IsPrime(p.q));
  EXPECT_GE(p.q, p.beta_inf * p.chunk_width);
}

TEST(SisL0ParamsTest, LargerEpsMeansFewerChunks) {
  SisL0Params a = SisL0Params::Derive(1 << 16, 0.25, 0.2, 100);
  SisL0Params b = SisL0Params::Derive(1 << 16, 0.75, 0.2, 100);
  EXPECT_GT(a.num_chunks, b.num_chunks);
  EXPECT_LT(a.chunk_width, b.chunk_width);
}

void ExpectParams(const SisL0Params& p, uint64_t universe, uint64_t width,
                  uint64_t chunks, size_t rows, uint64_t q, uint64_t beta) {
  EXPECT_EQ(p.universe, universe);
  EXPECT_EQ(p.chunk_width, width);
  EXPECT_EQ(p.num_chunks, chunks);
  EXPECT_EQ(p.sketch_rows, rows);
  EXPECT_EQ(p.q, q);
  EXPECT_EQ(p.beta_inf, beta);
}

TEST(SisL0ParamsTest, DerivedFieldsArePinned) {
  // Recorded from the uncached derivation. Derive memoizes per config, so
  // the first call derives and the second reads the memo; both must match.
  for (int call = 0; call < 2; ++call) {
    ExpectParams(SisL0Params::Derive(1 << 16, 0.5, 0.25, 1000), 65536, 256,
                 256, 4, 281474976710677ULL, 1000);
    ExpectParams(SisL0Params::Derive(uint64_t{1} << 20, 0.5, 0.25,
                                     uint64_t{1} << 20),
                 1048576, 1024, 1024, 6, 1152921504606847009ULL, 1048576);
  }
}

TEST(SisL0ParamsTest, ModulusSaturatesAtTheCap) {
  // n^3 passes the 2^61 cap from n = 2^21 on. Formed in wrapping arithmetic
  // it read 0 from n = 2^22, and q fell to the first prime past
  // 4 * f_inf * chunk width: ~2^33 at 2^22, ~2^37 at 2^30.
  constexpr uint64_t kQ = 2305843009213693967ULL;  // first prime >= 2^61
  for (int log_n : {21, 22, 24, 30}) {
    EXPECT_EQ(SisL0Params::Derive(uint64_t{1} << log_n, 0.5, 0.25,
                                  uint64_t{1} << 20)
                  .q,
              kQ)
        << "n = 2^" << log_n;
  }
  // 4 * f_inf * chunk width saturates too, rather than wrapping to 0 and
  // leaving q at n^3.
  EXPECT_EQ(SisL0Params::Derive(1 << 16, 0.5, 0.25, uint64_t{1} << 62).q, kQ);
}

TEST(SisL0ParamsTest, ConcurrentDeriveAgrees) {
  // Threads derive the same fresh configs at once, so first derivations and
  // memo reads race (TSan runs this test); every result must agree.
  struct Config {
    uint64_t universe;
    double eps, c;
    uint64_t f_inf_bound;
  };
  const Config configs[] = {{1 << 14, 0.4, 0.2, 77},
                            {1 << 12, 0.6, 0.3, 5},
                            {1 << 18, 0.5, 0.25, 1 << 10}};
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 20;
  std::atomic<bool> go{false};
  std::vector<std::vector<SisL0Params>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (size_t r = 0; r < kRounds; ++r) {
        const Config& k = configs[(t + r) % 3];
        got[t].push_back(
            SisL0Params::Derive(k.universe, k.eps, k.c, k.f_inf_bound));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds);
    for (size_t r = 0; r < kRounds; ++r) {
      const Config& k = configs[(t + r) % 3];
      const SisL0Params want =
          SisL0Params::Derive(k.universe, k.eps, k.c, k.f_inf_bound);
      const SisL0Params& p = got[t][r];
      ExpectParams(p, want.universe, want.chunk_width, want.num_chunks,
                   want.sketch_rows, want.q, want.beta_inf);
      EXPECT_TRUE(wbs::IsPrime(p.q));
    }
  }
}

crypto::RandomOracle SharedOracle() { return crypto::RandomOracle(42); }

TEST(SisL0Test, EmptyStreamIsZero) {
  auto oracle = SharedOracle();
  SisL0Estimator alg(SisL0Params::Derive(1 << 12, 0.5, 0.25, 100), oracle, 0);
  EXPECT_DOUBLE_EQ(alg.Query(), 0.0);
}

TEST(SisL0Test, SingleItemGivesOne) {
  auto oracle = SharedOracle();
  SisL0Estimator alg(SisL0Params::Derive(1 << 12, 0.5, 0.25, 100), oracle, 0);
  ASSERT_TRUE(alg.Update({17, 3}).ok());
  EXPECT_DOUBLE_EQ(alg.Query(), 1.0);
}

TEST(SisL0Test, DeletionCancelsExactly) {
  auto oracle = SharedOracle();
  SisL0Estimator alg(SisL0Params::Derive(1 << 12, 0.5, 0.25, 100), oracle, 0);
  ASSERT_TRUE(alg.Update({17, 3}).ok());
  ASSERT_TRUE(alg.Update({17, -3}).ok());
  EXPECT_DOUBLE_EQ(alg.Query(), 0.0);
}

// The Theorem 1.5 sandwich: L0 / n^eps <= answer <= L0 — across epsilons
// and support sizes on honest turnstile churn streams.
class SisL0SandwichTest
    : public ::testing::TestWithParam<std::pair<double, uint64_t>> {};

TEST_P(SisL0SandwichTest, MultiplicativeGuarantee) {
  auto [eps, live] = GetParam();
  const uint64_t n = 1 << 14;
  auto oracle = SharedOracle();
  SisL0Params params = SisL0Params::Derive(n, eps, 0.25, 1000);
  SisL0Estimator alg(params, oracle, live);
  wbs::RandomTape tape(live * 7 + uint64_t(eps * 100));
  auto s = stream::InsertDeleteChurnStream(n, live, 200, &tape);
  stream::FrequencyOracle truth(n);
  for (const auto& u : s) {
    truth.Add(u.item, u.delta);
    ASSERT_TRUE(alg.Update(u).ok());
  }
  const double l0 = double(truth.L0());
  const double answer = alg.Query();
  EXPECT_LE(answer, l0 + 1e-9);
  EXPECT_GE(answer * double(params.chunk_width), l0 - 1e-9)
      << "eps=" << eps << " live=" << live;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SisL0SandwichTest,
    ::testing::Values(std::pair{0.3, uint64_t{50}},
                      std::pair{0.3, uint64_t{2000}},
                      std::pair{0.5, uint64_t{50}},
                      std::pair{0.5, uint64_t{2000}},
                      std::pair{0.7, uint64_t{500}}));

TEST(SisL0Test, SpaceScalesWithChunksTimesRows) {
  const uint64_t n = 1 << 14;
  auto oracle = SharedOracle();
  SisL0Params p = SisL0Params::Derive(n, 0.5, 0.25, 100);
  SisL0Estimator alg(p, oracle, 1);
  EXPECT_EQ(alg.SpaceBits(),
            p.num_chunks * p.sketch_rows * wbs::BitsForUniverse(p.q));
  // Sublinear in n * log: far below storing the frequency vector.
  EXPECT_LT(alg.SpaceBits(), n * 8);
}

TEST(SisL0Test, CopyOutlivesItsOriginal) {
  // A copy owns everything it reads: updated and queried after its original
  // is destroyed, it matches an estimator that was never copied, on the
  // oracle path and on the materialized (engine) path.
  const uint64_t n = 1 << 12;
  auto oracle = SharedOracle();
  const SisL0Params p = SisL0Params::Derive(n, 0.5, 0.25, 100);
  wbs::RandomTape tape(23);
  const auto updates = stream::InsertDeleteChurnStream(n, 300, 400, &tape);
  const size_t half = updates.size() / 2;
  for (bool materialized : {false, true}) {
    SisL0Estimator reference(p, oracle, 5);
    auto original = std::make_unique<SisL0Estimator>(p, oracle, 5);
    if (materialized) {
      reference.MaterializeMatrix();
      original->MaterializeMatrix();
    }
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(reference.Update(updates[i]).ok());
      ASSERT_TRUE(original->Update(updates[i]).ok());
    }
    SisL0Estimator copy(*original);
    original.reset();
    for (size_t i = half; i < updates.size(); ++i) {
      ASSERT_TRUE(reference.Update(updates[i]).ok());
      ASSERT_TRUE(copy.Update(updates[i]).ok());
    }
    EXPECT_EQ(copy.Query(), reference.Query()) << materialized;
    EXPECT_GE(copy.Query(), 1.0);
    core::StateWriter got, want;
    copy.SerializeState(&got);
    reference.SerializeState(&want);
    EXPECT_EQ(got.words(), want.words()) << materialized;
  }
}

TEST(SisL0Test, MergeRequiresTheSameMatrix) {
  // Equal params are not enough: estimators whose A comes from another
  // oracle instance or domain hold incompatible sketches, and merging them
  // would silently mix two matrices.
  const SisL0Params p = SisL0Params::Derive(1 << 12, 0.5, 0.25, 100);
  SisL0Estimator target(p, SharedOracle(), 5);
  SisL0Estimator same(p, SharedOracle(), 5);
  ASSERT_TRUE(same.Update({7, 3}).ok());
  SisL0Estimator other_seed(p, crypto::RandomOracle(43), 5);
  SisL0Estimator other_domain(p, SharedOracle(), 6);
  for (const SisL0Estimator* o : {&other_seed, &other_domain}) {
    const std::vector<uint64_t> before = target.state();
    Status s = target.MergeFrom(*o);
    EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
    s = target.UnmergeFrom(*o);
    EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
    EXPECT_EQ(target.state(), before);
  }
  ASSERT_TRUE(target.MergeFrom(same).ok());
  EXPECT_EQ(target.state(), same.state());
  ASSERT_TRUE(target.UnmergeFrom(same).ok());
  EXPECT_DOUBLE_EQ(target.Query(), 0.0);
}

TEST(SisL0Test, RestoreStateChecksEveryResidueBeforeWriting) {
  // The range check is branch-free (x >= q exactly when x or q - 1 - x has
  // its top bit set), so pin its edges: q - 1 restores; q, q + 1, 2^63 - 1
  // and 2^64 - 1 are rejected in the first or the last word, and a
  // rejected restore leaves the state as it was.
  const SisL0Params p = SisL0Params::Derive(1 << 12, 0.5, 0.25, 100);
  SisL0Estimator alg(p, SharedOracle(), 5);
  ASSERT_TRUE(alg.Update({7, 3}).ok());
  const std::vector<uint64_t> before = alg.state();
  const auto restore = [&](const std::vector<uint64_t>& words) {
    std::vector<uint64_t> le(words.size());
    CopyLittleEndian<uint64_t>(le.data(), words.data(), words.size());
    return alg.RestoreState(le.data(), le.size());
  };
  const uint64_t q = p.q;
  for (uint64_t bad : {q, q + 1, (uint64_t{1} << 63) - 1, ~uint64_t{0}}) {
    for (size_t at : {size_t{0}, before.size() - 1}) {
      std::vector<uint64_t> words(before.size(), q - 1);
      words[at] = bad;
      const Status s = restore(words);
      EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
      EXPECT_EQ(alg.state(), before);
    }
  }
  EXPECT_FALSE(restore(std::vector<uint64_t>(before.size() + 1, 0)).ok());
  EXPECT_EQ(alg.state(), before);
  const std::vector<uint64_t> top(before.size(), q - 1);
  ASSERT_TRUE(restore(top).ok());
  EXPECT_EQ(alg.state(), top);
}

TEST(SisL0Test, RejectsOutOfUniverse) {
  auto oracle = SharedOracle();
  SisL0Estimator alg(SisL0Params::Derive(100, 0.5, 0.25, 10), oracle, 0);
  EXPECT_FALSE(alg.Update({1000, 1}).ok());
}

TEST(SisL0Test, FoolingRequiresSisSolution) {
  // Any turnstile stream that leaves a chunk's frequency vector nonzero but
  // its sketch zero IS a SIS solution for the shared matrix. Verify the
  // contrapositive experimentally: random small-entry vectors never zero
  // the sketch.
  const uint64_t n = 1 << 12;
  auto oracle = SharedOracle();
  SisL0Params p = SisL0Params::Derive(n, 0.5, 0.25, 100);
  SisL0Estimator alg(p, oracle, 99);
  wbs::RandomTape tape(55);
  for (int trial = 0; trial < 200; ++trial) {
    // Random +-1 vector on chunk 0, net nonzero.
    uint64_t item = tape.UniformInt(p.chunk_width);
    ASSERT_TRUE(alg.Update({item, tape.SignBit()}).ok());
  }
  // After random updates the support is almost surely nonzero and so is the
  // answer (the reverse would mean we stumbled on a SIS solution).
  EXPECT_GE(alg.Query(), 1.0);
}

// ------------------------------------------------------------- NaiveSumL0 --

TEST(NaiveSumL0Test, CountsChunksHonestly) {
  NaiveSumL0 alg(1 << 10, 32);
  ASSERT_TRUE(alg.Update({0, 1}).ok());
  ASSERT_TRUE(alg.Update({100, 2}).ok());
  EXPECT_DOUBLE_EQ(alg.Query(), 2.0);
}

TEST(NaiveSumL0Test, WhiteBoxCancellationAttack) {
  // The one-line attack every non-cryptographic linear sketch admits:
  // insert +1 at coordinate a and -1 at coordinate b in the same chunk.
  NaiveSumL0 alg(1 << 10, 32);
  ASSERT_TRUE(alg.Update({3, 1}).ok());
  ASSERT_TRUE(alg.Update({7, -1}).ok());
  // True L0 is 2; the sketch says 0 — broken.
  EXPECT_DOUBLE_EQ(alg.Query(), 0.0);
}

TEST(NaiveSumL0Test, SisSketchResistsTheSameAttack) {
  // The identical +1/-1 pair does NOT cancel the SIS sketch (the columns of
  // A differ), which is the entire point of Algorithm 5.
  auto oracle = SharedOracle();
  SisL0Estimator alg(SisL0Params::Derive(1 << 10, 0.5, 0.3, 10), oracle, 1);
  ASSERT_TRUE(alg.Update({3, 1}).ok());
  ASSERT_TRUE(alg.Update({7, -1}).ok());
  EXPECT_GE(alg.Query(), 1.0);
}

// ------------------------------------------------------------ KmvDistinct --

TEST(KmvTest, ObliviousStreamsEstimateWell) {
  int ok = 0;
  for (int trial = 0; trial < 5; ++trial) {
    wbs::RandomTape tape(70 + trial);
    KmvDistinct alg(64, &tape);
    const uint64_t distinct = 5000;
    for (uint64_t i = 0; i < distinct; ++i) {
      ASSERT_TRUE(alg.Update({i}).ok());
    }
    double est = alg.Query();
    if (std::abs(est - double(distinct)) <= 0.5 * double(distinct)) ++ok;
  }
  EXPECT_GE(ok, 4);
}

TEST(KmvTest, DuplicatesDoNotInflate) {
  wbs::RandomTape tape(75);
  KmvDistinct alg(32, &tape);
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(alg.Update({i}).ok());
  }
  EXPECT_LE(alg.Query(), 15.0);
}

TEST(KmvTest, BlindingAdversaryFreezesEstimate) {
  // The white-box attack of Section 1: the adversary reads the hash seed
  // from the exposed state and inserts only items hashing above the k-th
  // minimum. True L0 grows ~unboundedly; the estimate never moves.
  wbs::RandomTape tape(80);
  KmvDistinct alg(32, &tape);
  const uint64_t universe = 1 << 22;
  // Warm up: fill the sketch with k arbitrary items.
  stream::FrequencyOracle truth(universe);
  for (uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(alg.Update({universe - 1 - i}).ok());
    truth.Add(universe - 1 - i);
  }
  KmvBlindingAdversary adv(&alg, universe);
  auto result = core::RunGame<stream::ItemUpdate, double>(
      &alg, &adv, 5000,
      [&](const stream::ItemUpdate& u) { truth.Add(u.item); },
      [&](uint64_t round, const double& answer) {
        if (round < 2000) return true;  // allow warm-up and 4x slack
        return answer >= double(truth.L0()) / 4.0;
      });
  EXPECT_FALSE(result.algorithm_survived)
      << "the blinding adversary must defeat KMV";
  // And the SIS estimator on the same update sequence stays sandwiched (it
  // is insertion-compatible: deltas of +1).
}

TEST(KmvTest, ThresholdExposedToAdversary) {
  wbs::RandomTape tape(85);
  KmvDistinct alg(4, &tape);
  EXPECT_EQ(alg.Threshold(), ~uint64_t{0});
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(alg.Update({i}).ok());
  EXPECT_LT(alg.Threshold(), ~uint64_t{0});
}

TEST(KmvTest, SpaceBitsLinearInK) {
  wbs::RandomTape tape(86);
  KmvDistinct alg(16, &tape);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(alg.Update({i}).ok());
  EXPECT_EQ(alg.SpaceBits(), 64u + 16u * 64u);
}

}  // namespace
}  // namespace wbs::distinct
