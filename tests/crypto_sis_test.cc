// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// SIS toolkit: oracle-derived matrices, sketch linearity, the process-wide
// materialized tables, and the bounded adversary's short-vector searches
// (Definition 2.15, Assumption 2.17).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/modmath.h"
#include "common/random.h"
#include "crypto/random_oracle.h"
#include "crypto/sis.h"

namespace wbs::crypto {
namespace {

SisParams SmallParams() {
  SisParams p;
  p.q = 10007;
  p.rows = 3;
  p.cols = 4;
  p.beta_inf = 2;
  return p;
}

TEST(SisMatrixTest, EntriesConsistentAndInRange) {
  RandomOracle ro(1);
  SisMatrix m(SmallParams(), ro, 7);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      uint64_t e = m.Entry(i, j);
      EXPECT_LT(e, 10007u);
      EXPECT_EQ(e, m.Entry(i, j));
    }
  }
}

TEST(SisMatrixTest, MaterializePreservesEntries) {
  RandomOracle ro(2);
  SisMatrix a(SmallParams(), ro, 9);
  SisMatrix b(SmallParams(), ro, 9);
  b.Materialize();
  EXPECT_TRUE(b.materialized());
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(a.Entry(i, j), b.Entry(i, j));
    }
  }
}

TEST(SisMatrixTest, DomainsAreIndependent) {
  RandomOracle ro(3);
  SisMatrix a(SmallParams(), ro, 1);
  SisMatrix b(SmallParams(), ro, 2);
  int diffs = 0;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      diffs += a.Entry(i, j) != b.Entry(i, j) ? 1 : 0;
    }
  }
  EXPECT_GT(diffs, 8);
}

TEST(SisParamsTest, BitsAccounting) {
  SisParams p = SmallParams();
  EXPECT_EQ(p.EntryBits(), wbs::BitsForUniverse(10007));
  EXPECT_EQ(p.MatrixBits(), p.EntryBits() * 12);
}

/// A sketch vector v = A * f over `m`, all zero (f = 0).
std::vector<uint64_t> ZeroSketch(const SisMatrix& m) {
  return std::vector<uint64_t>(m.params().rows, 0);
}

bool IsZero(const std::vector<uint64_t>& v) {
  return std::all_of(v.begin(), v.end(), [](uint64_t x) { return x == 0; });
}

TEST(SisSketchTest, StartsZero) {
  RandomOracle ro(4);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> v = ZeroSketch(m);
  EXPECT_TRUE(IsZero(v));
}

TEST(SisSketchTest, UpdateThenCancelReturnsToZero) {
  RandomOracle ro(5);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> v = ZeroSketch(m);
  ASSERT_TRUE(m.AddColumn(v.data(), 2, 5).ok());
  EXPECT_FALSE(IsZero(v));
  ASSERT_TRUE(m.AddColumn(v.data(), 2, -5).ok());
  EXPECT_TRUE(IsZero(v));
}

TEST(SisSketchTest, Linearity) {
  RandomOracle ro(6);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> a = ZeroSketch(m), b = ZeroSketch(m),
                        ab = ZeroSketch(m);
  ASSERT_TRUE(m.AddColumn(a.data(), 0, 3).ok());
  ASSERT_TRUE(m.AddColumn(b.data(), 1, -2).ok());
  ASSERT_TRUE(m.AddColumn(ab.data(), 0, 3).ok());
  ASSERT_TRUE(m.AddColumn(ab.data(), 1, -2).ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ab[i], AddMod(a[i], b[i], m.params().q));
  }
}

TEST(SisSketchTest, OutOfRangeColumnRejected) {
  RandomOracle ro(7);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> v = ZeroSketch(m);
  EXPECT_FALSE(m.AddColumn(v.data(), 4, 1).ok());
}

TEST(SisSketchTest, NegativeDeltaReducesCorrectly) {
  RandomOracle ro(8);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> v = ZeroSketch(m);
  ASSERT_TRUE(m.AddColumn(v.data(), 1, -1).ok());
  const uint64_t q = m.params().q;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(v[i], (q - m.Entry(i, 1) % q) % q);
  }
}

TEST(SisSketchTest, SpaceBits) {
  // A sketch vector is `rows` residues of EntryBits() each.
  RandomOracle ro(9);
  SisMatrix m(SmallParams(), ro, 0);
  std::vector<uint64_t> v = ZeroSketch(m);
  EXPECT_EQ(m.params().EntryBits() * v.size(),
            3 * wbs::BitsForUniverse(10007));
}

TEST(SisSolutionTest, ValidatorAcceptsPlanted) {
  // Tiny q makes kernel vectors common: find one by brute force and check
  // the validator agrees with a manual recomputation.
  SisParams p;
  p.q = 3;
  p.rows = 2;
  p.cols = 6;
  p.beta_inf = 1;
  RandomOracle ro(10);
  SisMatrix m(p, ro, 0);
  SisAttackResult r = BruteForceSisAttack(m, 1'000'000);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(IsValidSisSolution(m, r.z));
}

TEST(SisSolutionTest, ValidatorRejectsZeroAndOversized) {
  SisParams p = SmallParams();
  RandomOracle ro(11);
  SisMatrix m(p, ro, 0);
  EXPECT_FALSE(IsValidSisSolution(m, std::vector<int64_t>(4, 0)));
  std::vector<int64_t> too_big(4, 0);
  too_big[0] = int64_t(p.beta_inf) + 1;
  EXPECT_FALSE(IsValidSisSolution(m, too_big));
  EXPECT_FALSE(IsValidSisSolution(m, std::vector<int64_t>(3, 1)));  // size
}

TEST(SisAttackTest, BruteForceRespectsBudget) {
  SisParams p;
  p.q = (uint64_t{1} << 31) - 1;  // large q: no short solution in range
  p.rows = 4;
  p.cols = 6;
  p.beta_inf = 1;
  RandomOracle ro(12);
  SisMatrix m(p, ro, 0);
  SisAttackResult r = BruteForceSisAttack(m, 100);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_LE(r.operations_used, 101u);
}

TEST(SisAttackTest, BruteForceExhaustsWithoutSolution) {
  // With a huge modulus and one row, A z = 0 mod q over {-1,0,1}^3 has no
  // nonzero solution w.h.p. — the attack must report exhaustion of the
  // SEARCH SPACE (not the budget).
  SisParams p;
  p.q = (uint64_t{1} << 61) - 1;
  p.rows = 2;
  p.cols = 3;
  p.beta_inf = 1;
  RandomOracle ro(13);
  SisMatrix m(p, ro, 0);
  SisAttackResult r = BruteForceSisAttack(m, 1'000'000);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(SisAttackTest, MeetInMiddleAgreesWithBruteForceOnSolvability) {
  SisParams p;
  p.q = 5;
  p.rows = 2;
  p.cols = 6;
  p.beta_inf = 1;
  RandomOracle ro(14);
  SisMatrix m(p, ro, 0);
  SisAttackResult bf = BruteForceSisAttack(m, 10'000'000);
  SisAttackResult mitm = MeetInMiddleSisAttack(m, 10'000'000);
  EXPECT_EQ(bf.found, mitm.found);
  if (mitm.found) {
    EXPECT_TRUE(IsValidSisSolution(m, mitm.z));
  }
}

TEST(SisAttackTest, MeetInMiddleExploresQuadraticallyFewerCandidates) {
  // On an UNSOLVABLE instance both searches exhaust: brute force visits
  // (2b+1)^cols candidates, meet-in-the-middle only 2 * (2b+1)^{cols/2}.
  SisParams p;
  p.q = (uint64_t{1} << 61) - 1;  // huge q: no short solution
  p.rows = 2;
  p.cols = 10;
  p.beta_inf = 1;
  RandomOracle ro(15);
  SisMatrix m(p, ro, 0);
  SisAttackResult bf = BruteForceSisAttack(m, 100'000'000);
  SisAttackResult mitm = MeetInMiddleSisAttack(m, 100'000'000);
  ASSERT_FALSE(bf.found);
  ASSERT_FALSE(mitm.found);
  EXPECT_GE(bf.operations_used, 50000u);   // 3^10 = 59049
  EXPECT_LE(mitm.operations_used, 600u);   // 2 * 3^5 = 486
}

TEST(SisAttackTest, WorkGrowsExponentiallyWithColumns) {
  // The experimental core of the computational separation: each extra
  // column multiplies the exhaustive search space by (2 beta + 1).
  uint64_t prev_ops = 0;
  for (size_t cols = 4; cols <= 8; cols += 2) {
    SisParams p;
    p.q = (uint64_t{1} << 61) - 1;
    p.rows = 3;
    p.cols = cols;
    p.beta_inf = 1;
    RandomOracle ro(16);
    SisMatrix m(p, ro, 0);
    SisAttackResult r = BruteForceSisAttack(m, ~uint64_t{0} >> 1);
    EXPECT_FALSE(r.found);
    if (prev_ops > 0) {
      EXPECT_GE(r.operations_used, prev_ops * 4);
    }
    prev_ops = r.operations_used;
  }
}

// ------------------------------------------------- materialization kernels --

TEST(SisMatrixTest, MaterializeServesIdenticalEntries) {
  // The column-major cache must be invisible through Entry(): every entry
  // equals its on-demand oracle value, and Column(j) is the contiguous
  // image of column j.
  RandomOracle oracle(31);
  SisParams p;
  p.q = wbs::NextPrime(uint64_t{1} << 61);
  p.rows = 7;
  p.cols = 13;
  p.beta_inf = 5;
  SisMatrix lazy(p, oracle, 4);
  SisMatrix cached(p, oracle, 4);
  cached.Materialize();
  ASSERT_TRUE(cached.materialized());
  ASSERT_FALSE(lazy.materialized());
  for (size_t i = 0; i < p.rows; ++i) {
    for (size_t j = 0; j < p.cols; ++j) {
      EXPECT_EQ(cached.Entry(i, j), lazy.Entry(i, j)) << i << "," << j;
    }
  }
  for (size_t j = 0; j < p.cols; ++j) {
    const uint64_t* column = cached.Column(j);
    for (size_t i = 0; i < p.rows; ++i) {
      EXPECT_EQ(column[i], lazy.Entry(i, j));
    }
  }
}

TEST(SisSketchVectorTest, MaterializedUpdatePathBitIdenticalToOraclePath) {
  RandomOracle oracle(32);
  SisParams p;
  p.q = wbs::NextPrime(uint64_t{1} << 61);
  p.rows = 9;
  p.cols = 17;
  p.beta_inf = 100;
  SisMatrix lazy(p, oracle, 5);
  SisMatrix cached(p, oracle, 5);
  cached.Materialize();
  std::vector<uint64_t> via_oracle = ZeroSketch(lazy);
  std::vector<uint64_t> via_cache = ZeroSketch(cached);
  uint64_t s = 12345;
  for (int t = 0; t < 500; ++t) {
    const size_t col = size_t(wbs::SplitMix64(&s) % p.cols);
    const int64_t delta = int64_t(wbs::SplitMix64(&s) % 4001) - 2000;
    ASSERT_TRUE(lazy.AddColumn(via_oracle.data(), col, delta).ok());
    ASSERT_TRUE(cached.AddColumn(via_cache.data(), col, delta).ok());
  }
  EXPECT_EQ(via_oracle, via_cache);
}

TEST(SisSketchVectorTest, UnmergeFromInvertsMergeFrom) {
  // Sketch vectors over one A merge by AccumulateMod and unmerge by
  // SubtractMod; the pair is an exact round trip.
  RandomOracle oracle(33);
  SisParams p = SmallParams();
  SisMatrix matrix(p, oracle, 6);
  std::vector<uint64_t> a = ZeroSketch(matrix), b = ZeroSketch(matrix);
  uint64_t s = 8;
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(matrix
                    .AddColumn(a.data(), size_t(wbs::SplitMix64(&s) % p.cols),
                               int64_t(wbs::SplitMix64(&s) % 11) - 5)
                    .ok());
    ASSERT_TRUE(matrix
                    .AddColumn(b.data(), size_t(wbs::SplitMix64(&s) % p.cols),
                               int64_t(wbs::SplitMix64(&s) % 11) - 5)
                    .ok());
  }
  const std::vector<uint64_t> a_before = a;
  AccumulateMod(a.data(), b.data(), a.size(), p.q);
  SubtractMod(a.data(), b.data(), a.size(), p.q);
  EXPECT_EQ(a, a_before);
}

// --------------------------------------------------------- shared tables --

SisParams TableParams() {
  SisParams p;
  p.q = wbs::NextPrime(uint64_t{1} << 40);
  p.rows = 5;
  p.cols = 11;
  p.beta_inf = 7;
  return p;
}

TEST(SisSharedTableTest, OneTablePerKey) {
  // Matrices with the same (oracle instance, domain, q, rows, cols) adopt
  // one table; a difference in any of the five gives a table of its own.
  RandomOracle oracle(41);
  const SisParams p = TableParams();
  SisMatrix a(p, oracle, 3);
  SisMatrix b(p, RandomOracle(41), 3);
  a.Materialize();
  b.Materialize();
  ASSERT_TRUE(a.materialized() && b.materialized());
  EXPECT_EQ(a.Column(0), b.Column(0));
  EXPECT_EQ(a.ShoupColumn(0), b.ShoupColumn(0));
  EXPECT_EQ(a.table(), b.table());
  EXPECT_TRUE(a.SameMatrix(b));

  SisParams other_q = p;
  other_q.q = wbs::NextPrime(p.q + 1);
  SisParams other_rows = p;
  other_rows.rows = p.rows + 1;
  SisParams other_cols = p;
  other_cols.cols = p.cols + 1;
  std::vector<SisMatrix> others = {
      SisMatrix(p, RandomOracle(42), 3),  // seed
      SisMatrix(p, oracle, 4),            // domain
      SisMatrix(other_q, oracle, 3),      // q
      SisMatrix(other_rows, oracle, 3),   // rows
      SisMatrix(other_cols, oracle, 3),   // cols
  };
  for (size_t k = 0; k < others.size(); ++k) {
    others[k].Materialize();
    EXPECT_NE(others[k].Column(0), a.Column(0)) << k;
    EXPECT_FALSE(others[k].SameMatrix(a)) << k;
    for (size_t l = 0; l < k; ++l) {
      EXPECT_NE(others[k].Column(0), others[l].Column(0)) << k << "," << l;
    }
  }
  // beta_inf bounds admissible solutions; it does not change A.
  SisParams other_beta = p;
  other_beta.beta_inf = p.beta_inf + 1;
  SisMatrix c(other_beta, oracle, 3);
  c.Materialize();
  EXPECT_EQ(c.Column(0), a.Column(0));

  // A copy shares its original's table and reads nothing the original owns.
  auto original = std::make_unique<SisMatrix>(p, oracle, 3);
  original->Materialize();
  SisMatrix copy(*original);
  original.reset();
  EXPECT_EQ(copy.Column(0), a.Column(0));
}

TEST(SisSharedTableTest, FreedWithItsLastHolder) {
  RandomOracle oracle(43);
  const SisParams p = TableParams();
  std::weak_ptr<const SisMatrix::Table> seen;
  {
    SisMatrix a(p, oracle, 8);
    a.Materialize();
    seen = a.table();
    {
      SisMatrix b(p, oracle, 8);
      b.Materialize();
      EXPECT_EQ(b.table(), a.table());
    }
    EXPECT_FALSE(seen.expired()) << "one holder is left";
  }
  EXPECT_TRUE(seen.expired()) << "the registry must not keep the table";

  // The next Materialize builds the table again, and it serves exactly the
  // entries the oracle path derives.
  SisMatrix lazy(p, oracle, 8);
  SisMatrix rebuilt(p, oracle, 8);
  rebuilt.Materialize();
  ASSERT_TRUE(rebuilt.materialized());
  for (size_t j = 0; j < p.cols; ++j) {
    for (size_t i = 0; i < p.rows; ++i) {
      EXPECT_EQ(rebuilt.Column(j)[i], lazy.Entry(i, j)) << i << "," << j;
      EXPECT_EQ(rebuilt.ShoupColumn(j)[i],
                uint64_t((wbs::u128(lazy.Entry(i, j)) << 64) / p.q));
    }
  }
}

TEST(SisSharedTableTest, ConcurrentMaterializeBuildsOneTable) {
  RandomOracle oracle(44);
  SisParams p = TableParams();
  p.cols = 256;  // long enough a build that the threads overlap
  constexpr int kThreads = 4;
  std::vector<SisMatrix> matrices(kThreads, SisMatrix(p, oracle, 9));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&matrices, t] { matrices[t].Materialize(); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(matrices[t].Column(0), matrices[0].Column(0)) << t;
  }
  SisMatrix lazy(p, oracle, 9);
  for (size_t j = 0; j < p.cols; ++j) {
    for (size_t i = 0; i < p.rows; ++i) {
      ASSERT_EQ(matrices[kThreads - 1].Column(j)[i], lazy.Entry(i, j));
    }
  }
}

}  // namespace
}  // namespace wbs::crypto
