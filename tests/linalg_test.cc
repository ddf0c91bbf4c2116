// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Z_q linear algebra, exact integer kernels, the Theorem 1.6 rank-decision
// sketch, and the streaming basis tracker corollary.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "crypto/random_oracle.h"
#include "linalg/matrix_zq.h"
#include "linalg/rank_sketch.h"

namespace wbs::linalg {
namespace {

constexpr uint64_t kQ = 1000003;

MatrixZq RandomMatrix(size_t r, size_t c, uint64_t q, wbs::RandomTape* tape) {
  MatrixZq m(r, c, q);
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) m.At(i, j) = tape->UniformInt(q);
  }
  return m;
}

// Builds an n x n matrix of known rank r: product of random n x r and r x n.
MatrixZq KnownRankMatrix(size_t n, size_t r, uint64_t q,
                         wbs::RandomTape* tape) {
  MatrixZq a = RandomMatrix(n, r, q, tape);
  MatrixZq b = RandomMatrix(r, n, q, tape);
  return a.Multiply(b);
}

TEST(MatrixZqTest, IdentityRank) {
  MatrixZq id = MatrixZq::Identity(8, kQ);
  EXPECT_EQ(id.Rank(), 8u);
  EXPECT_FALSE(id.KernelVector().has_value());
}

TEST(MatrixZqTest, ZeroMatrixRankZero) {
  MatrixZq z(5, 5, kQ);
  EXPECT_EQ(z.Rank(), 0u);
  EXPECT_TRUE(z.IsZero());
}

TEST(MatrixZqTest, SetAndAddReduceModQ) {
  MatrixZq m(2, 2, 7);
  m.Set(0, 0, -1);
  EXPECT_EQ(m.At(0, 0), 6u);
  m.AddAt(0, 0, 3);
  EXPECT_EQ(m.At(0, 0), 2u);
  m.Set(1, 1, 14);
  EXPECT_EQ(m.At(1, 1), 0u);
}

class KnownRankTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(KnownRankTest, RankRecovered) {
  auto [n, r] = GetParam();
  wbs::RandomTape tape(n * 131 + r);
  MatrixZq m = KnownRankMatrix(n, r, kQ, &tape);
  // Product of random full-rank-ish factors has rank exactly r w.h.p.
  EXPECT_EQ(m.Rank(), r);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnownRankTest,
                         ::testing::Values(std::pair<size_t, size_t>{4, 1},
                                           std::pair<size_t, size_t>{6, 3},
                                           std::pair<size_t, size_t>{8, 8},
                                           std::pair<size_t, size_t>{12, 5},
                                           std::pair<size_t, size_t>{16, 15}));

TEST(MatrixZqTest, KernelVectorSatisfiesEquation) {
  wbs::RandomTape tape(9);
  for (int trial = 0; trial < 10; ++trial) {
    MatrixZq m = KnownRankMatrix(8, 5, kQ, &tape);
    auto x = m.KernelVector();
    ASSERT_TRUE(x.has_value());
    bool nonzero = false;
    for (uint64_t v : *x) nonzero |= v != 0;
    EXPECT_TRUE(nonzero);
    for (uint64_t v : m.Apply(*x)) EXPECT_EQ(v, 0u);
  }
}

TEST(MatrixZqTest, MultiplyAgainstHandComputed) {
  MatrixZq a(2, 2, 100), b(2, 2, 100);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  b.At(0, 0) = 5;
  b.At(0, 1) = 6;
  b.At(1, 0) = 7;
  b.At(1, 1) = 8;
  MatrixZq c = a.Multiply(b);
  EXPECT_EQ(c.At(0, 0), 19u);
  EXPECT_EQ(c.At(0, 1), 22u);
  EXPECT_EQ(c.At(1, 0), 43u);
  EXPECT_EQ(c.At(1, 1), 50u);
}

TEST(MatrixZqTest, ApplyMatchesMultiply) {
  wbs::RandomTape tape(10);
  MatrixZq m = RandomMatrix(4, 6, kQ, &tape);
  std::vector<uint64_t> x(6);
  for (auto& v : x) v = tape.UniformInt(kQ);
  MatrixZq xm(6, 1, kQ);
  for (size_t i = 0; i < 6; ++i) xm.At(i, 0) = x[i];
  MatrixZq y = m.Multiply(xm);
  std::vector<uint64_t> y2 = m.Apply(x);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(y.At(i, 0), y2[i]);
}

TEST(MatrixZqTest, SpaceBits) {
  MatrixZq m(3, 5, 1 << 20);
  EXPECT_EQ(m.SpaceBits(), 3u * 5u * 20u);
}

// ------------------------------------------------ ExactIntegerKernelVector --

TEST(IntKernelTest, SimpleDependentColumns) {
  // [1 1 2] has kernel (1, 1, -1)-ish solutions.
  std::vector<std::vector<int64_t>> m = {{1, 1, 2}};
  auto x = ExactIntegerKernelVector(m);
  ASSERT_TRUE(x.has_value());
  int64_t dot = (*x)[0] + (*x)[1] + 2 * (*x)[2];
  EXPECT_EQ(dot, 0);
  EXPECT_TRUE((*x)[0] != 0 || (*x)[1] != 0 || (*x)[2] != 0);
}

TEST(IntKernelTest, FullColumnRankReturnsNothing) {
  std::vector<std::vector<int64_t>> m = {{1, 0}, {0, 1}};
  EXPECT_FALSE(ExactIntegerKernelVector(m).has_value());
}

TEST(IntKernelTest, SignMatricesUpToRank24) {
  // The white-box AMS attack regime: r x (r+1) +-1 matrices.
  wbs::RandomTape tape(11);
  for (size_t r : {2u, 4u, 8u, 16u, 24u}) {
    std::vector<std::vector<int64_t>> m(r, std::vector<int64_t>(r + 1));
    for (auto& row : m) {
      for (auto& v : row) v = tape.SignBit();
    }
    auto x = ExactIntegerKernelVector(m);
    ASSERT_TRUE(x.has_value()) << "r=" << r;
    bool nonzero = false;
    for (size_t i = 0; i < r; ++i) {
      int64_t dot = 0;
      for (size_t j = 0; j <= r; ++j) dot += m[i][j] * (*x)[j];
      EXPECT_EQ(dot, 0) << "r=" << r << " row " << i;
    }
    for (int64_t v : *x) nonzero |= v != 0;
    EXPECT_TRUE(nonzero);
  }
}

TEST(IntKernelTest, WideMatrixUsesFreeColumn) {
  wbs::RandomTape tape(12);
  std::vector<std::vector<int64_t>> m(3, std::vector<int64_t>(8));
  for (auto& row : m) {
    for (auto& v : row) v = int64_t(tape.UniformInt(21)) - 10;
  }
  auto x = ExactIntegerKernelVector(m);
  ASSERT_TRUE(x.has_value());
  for (size_t i = 0; i < 3; ++i) {
    int64_t dot = 0;
    for (size_t j = 0; j < 8; ++j) dot += m[i][j] * (*x)[j];
    EXPECT_EQ(dot, 0);
  }
}

TEST(IntKernelTest, GcdReduced) {
  std::vector<std::vector<int64_t>> m = {{2, -2}};
  auto x = ExactIntegerKernelVector(m);
  ASSERT_TRUE(x.has_value());
  // Solution (1, 1), not (2, 2).
  EXPECT_EQ(std::abs((*x)[0]), 1);
  EXPECT_EQ(std::abs((*x)[1]), 1);
}

// ---------------------------------------------------- RankDecisionSketch --

class RankSketchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RankSketchTest, DecidesRankCorrectly) {
  const size_t n = 12;
  const size_t k = GetParam();
  crypto::RandomOracle oracle(7);
  wbs::RandomTape tape(k * 17);
  for (size_t true_rank : {k - 1, k, std::min(n, k + 3)}) {
    if (true_rank < 1) continue;
    RankDecisionSketch alg(n, k, kQ, oracle, 100 + true_rank);
    MatrixZq a = KnownRankMatrix(n, true_rank, kQ, &tape);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (a.At(i, j) == 0) continue;
        ASSERT_TRUE(alg.Update({i, j, int64_t(a.At(i, j))}).ok());
      }
    }
    EXPECT_EQ(alg.Query(), true_rank >= k)
        << "k=" << k << " true rank=" << true_rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RankSketchTest,
                         ::testing::Values(1, 2, 4, 6, 8));

TEST(RankSketchTest2, TurnstileUpdatesCancel) {
  crypto::RandomOracle oracle(8);
  RankDecisionSketch alg(8, 3, kQ, oracle, 1);
  ASSERT_TRUE(alg.Update({0, 0, 5}).ok());
  ASSERT_TRUE(alg.Update({0, 0, -5}).ok());
  EXPECT_TRUE(alg.sketch().IsZero());
  EXPECT_FALSE(alg.Query());  // zero matrix has rank 0 < 3
}

TEST(RankSketchTest2, SpaceIsSketchOnly) {
  crypto::RandomOracle oracle(9);
  RankDecisionSketch alg(64, 4, kQ, oracle, 1);
  // k x n entries of log q bits; H itself is free (random oracle).
  EXPECT_EQ(alg.SpaceBits(), 4u * 64u * wbs::BitsForUniverse(kQ));
  EXPECT_LT(alg.SpaceBits(), 64u * 64u * wbs::BitsForUniverse(kQ));
}

TEST(RankSketchTest2, RejectsOutOfRange) {
  crypto::RandomOracle oracle(10);
  RankDecisionSketch alg(8, 2, kQ, oracle, 1);
  EXPECT_FALSE(alg.Update({8, 0, 1}).ok());
  EXPECT_FALSE(alg.Update({0, 8, 1}).ok());
}

TEST(RankSketchTest2, LowRankNeverMisclassifiedHigh) {
  // The "rank < k" direction is unconditional (no crypto needed): verify it
  // over many random low-rank inputs.
  crypto::RandomOracle oracle(11);
  wbs::RandomTape tape(13);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 10, k = 5;
    RankDecisionSketch alg(n, k, kQ, oracle, 200 + trial);
    MatrixZq a = KnownRankMatrix(n, k - 1, kQ, &tape);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (a.At(i, j) != 0) {
          ASSERT_TRUE(alg.Update({i, j, int64_t(a.At(i, j))}).ok());
        }
      }
    }
    EXPECT_FALSE(alg.Query()) << trial;
  }
}

TEST(RankSketchTest2, OracleHeldByValue) {
  // One sketch is built from a temporary oracle; another is a copy of a
  // sketch whose heap-allocated oracle is freed and its memory handed to an
  // oracle of another instance. Both must read the same H as a reference
  // built beside a live oracle (ASan runs this suite).
  const crypto::RandomOracle live(21);
  RankDecisionSketch reference(8, 3, kQ, live, 4);
  RankDecisionSketch from_temporary(8, 3, kQ, crypto::RandomOracle(21), 4);
  auto scoped = std::make_unique<crypto::RandomOracle>(21);
  auto original = std::make_unique<RankDecisionSketch>(8, 3, kQ, *scoped, 4);
  RankDecisionSketch copy = *original;
  original.reset();
  scoped.reset();
  auto reuse = std::make_unique<crypto::RandomOracle>(99);

  wbs::RandomTape tape(5);
  const MatrixZq a = KnownRankMatrix(8, 3, kQ, &tape);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      if (a.At(i, j) == 0) continue;
      const EntryUpdate u{i, j, int64_t(a.At(i, j))};
      ASSERT_TRUE(reference.Update(u).ok());
      ASSERT_TRUE(from_temporary.Update(u).ok());
      ASSERT_TRUE(copy.Update(u).ok());
    }
  }
  ASSERT_TRUE(reference.Query());
  for (const RankDecisionSketch* s : {&from_temporary, &copy}) {
    EXPECT_EQ(s->Query(), reference.Query());
    EXPECT_TRUE(std::equal(s->sketch().data(),
                           s->sketch().data() + s->sketch().size(),
                           reference.sketch().data()));
  }
}

// -------------------------------------------------- StreamingBasisTracker --

TEST(BasisTrackerTest, OracleHeldByValue) {
  const crypto::RandomOracle live(23);
  StreamingBasisTracker reference(6, 3, kQ, live, 2);
  StreamingBasisTracker from_temporary(6, 3, kQ, crypto::RandomOracle(23), 2);
  auto scoped = std::make_unique<crypto::RandomOracle>(23);
  auto original = std::make_unique<StreamingBasisTracker>(6, 3, kQ, *scoped, 2);
  StreamingBasisTracker copy = *original;
  original.reset();
  scoped.reset();
  auto reuse = std::make_unique<crypto::RandomOracle>(99);

  // Rows 0-2 independent, row 3 = row 0 + row 1, row 4 independent again.
  const std::vector<std::vector<int64_t>> rows = {
      {1, 2, 0, 0, 3, 0}, {0, 1, 4, 0, 0, 1}, {5, 0, 0, 2, 0, 0},
      {1, 3, 4, 0, 3, 1}, {0, 0, 0, 0, 1, 7}};
  for (const auto& row : rows) {
    const bool kept = reference.OfferRow(row);
    EXPECT_EQ(from_temporary.OfferRow(row), kept);
    EXPECT_EQ(copy.OfferRow(row), kept);
  }
  EXPECT_EQ(reference.basis_indices(), (std::vector<size_t>{0, 1, 2, 4}));
  EXPECT_EQ(from_temporary.basis_indices(), reference.basis_indices());
  EXPECT_EQ(copy.basis_indices(), reference.basis_indices());
}

TEST(BasisTrackerTest, IndependentRowsAllKept) {
  crypto::RandomOracle oracle(12);
  StreamingBasisTracker tracker(8, 4, kQ, oracle, 1);
  // Standard basis rows are independent.
  for (size_t i = 0; i < 4; ++i) {
    std::vector<int64_t> row(8, 0);
    row[i] = 1;
    EXPECT_TRUE(tracker.OfferRow(row)) << i;
  }
  EXPECT_EQ(tracker.rank(), 4u);
}

TEST(BasisTrackerTest, DependentRowRejected) {
  crypto::RandomOracle oracle(13);
  StreamingBasisTracker tracker(6, 3, kQ, oracle, 2);
  std::vector<int64_t> r1 = {1, 2, 3, 0, 0, 0};
  std::vector<int64_t> r2 = {0, 1, 1, 0, 0, 0};
  std::vector<int64_t> sum = {1, 3, 4, 0, 0, 0};  // r1 + r2
  EXPECT_TRUE(tracker.OfferRow(r1));
  EXPECT_TRUE(tracker.OfferRow(r2));
  EXPECT_FALSE(tracker.OfferRow(sum));
  EXPECT_EQ(tracker.rank(), 2u);
  EXPECT_EQ(tracker.basis_indices(), (std::vector<size_t>{0, 1}));
}

TEST(BasisTrackerTest, ScalarMultipleRejected) {
  crypto::RandomOracle oracle(14);
  StreamingBasisTracker tracker(4, 2, kQ, oracle, 3);
  EXPECT_TRUE(tracker.OfferRow({1, -2, 3, 4}));
  EXPECT_FALSE(tracker.OfferRow({2, -4, 6, 8}));
}

TEST(BasisTrackerTest, MatchesExactRankOnRandomStreams) {
  crypto::RandomOracle oracle(15);
  wbs::RandomTape tape(16);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t n = 10, max_rank = 6;
    StreamingBasisTracker tracker(n, max_rank, kQ, oracle, 40 + trial);
    // Generate rows in a rank-r subspace.
    const size_t r = 3;
    std::vector<std::vector<int64_t>> basis(r, std::vector<int64_t>(n));
    for (auto& row : basis) {
      for (auto& v : row) v = int64_t(tape.UniformInt(7)) - 3;
    }
    for (int rows = 0; rows < 12; ++rows) {
      std::vector<int64_t> row(n, 0);
      for (size_t b = 0; b < r; ++b) {
        int64_t coef = int64_t(tape.UniformInt(5)) - 2;
        for (size_t j = 0; j < n; ++j) row[j] += coef * basis[b][j];
      }
      tracker.OfferRow(row);
    }
    EXPECT_LE(tracker.rank(), r) << trial;
  }
}

TEST(BasisTrackerTest, SpaceCompressed) {
  crypto::RandomOracle oracle(16);
  const size_t n = 256, max_rank = 4;
  StreamingBasisTracker tracker(n, max_rank, kQ, oracle, 5);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<int64_t> row(n, 0);
    row[i * 10] = 1;
    tracker.OfferRow(row);
  }
  // Stored rows are d = 2k+2 << n field elements wide.
  EXPECT_LT(tracker.SpaceBits(), 4 * n * wbs::BitsForUniverse(kQ) / 4);
}

}  // namespace
}  // namespace wbs::linalg
