// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Hierarchical heavy hitters: domain algebra, exact ground truth
// (Definition 2.9), TMS12 (Theorem 2.11), BernHHH (Algorithm 3) and the
// robust Algorithm 4 (Theorem 2.14).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "common/random.h"
#include "core/state_view.h"
#include "hhh/hhh.h"
#include "stream/workload.h"

#include "golden_pins.h"

namespace wbs::hhh {
namespace {

// -------------------------------------------------------------- Hierarchy --

TEST(HierarchyTest, BinaryHeight) {
  Hierarchy h = Hierarchy::Binary(1 << 10);
  EXPECT_EQ(h.height(), 10);
  EXPECT_EQ(h.bits_per_level(), 1);
}

TEST(HierarchyTest, ByteHeight) {
  Hierarchy h = Hierarchy::Bytes(32);
  EXPECT_EQ(h.height(), 4);
}

TEST(HierarchyTest, PrefixOfDropsLowBits) {
  Hierarchy h = Hierarchy::Bytes(32);
  const uint64_t ip = 0xC0A80101;  // 192.168.1.1
  EXPECT_EQ(h.PrefixOf(ip, 0).value, ip);
  EXPECT_EQ(h.PrefixOf(ip, 1).value, 0xC0A801u);  // /24
  EXPECT_EQ(h.PrefixOf(ip, 2).value, 0xC0A8u);    // /16
  EXPECT_EQ(h.PrefixOf(ip, 4).value, 0u);         // root
}

TEST(HierarchyTest, ParentChain) {
  Hierarchy h = Hierarchy::Binary(16);
  Prefix p = h.PrefixOf(0b1011, 0);
  Prefix parent = h.Parent(p);
  EXPECT_EQ(parent.level, 1);
  EXPECT_EQ(parent.value, 0b101u);
}

TEST(HierarchyTest, AncestorRelation) {
  Hierarchy h = Hierarchy::Binary(16);
  Prefix leaf = h.PrefixOf(0b1011, 0);
  Prefix anc = h.PrefixOf(0b1011, 2);  // 0b10
  EXPECT_TRUE(h.IsAncestorOrSelf(anc, leaf));
  EXPECT_TRUE(h.IsAncestorOrSelf(leaf, leaf));
  EXPECT_FALSE(h.IsAncestorOrSelf(leaf, anc));
  Prefix other = {2, 0b11};
  EXPECT_FALSE(h.IsAncestorOrSelf(other, leaf));
}

TEST(HierarchyTest, PrefixBitsShrinkUpTheTree) {
  Hierarchy h = Hierarchy::Bytes(32);
  EXPECT_GT(h.PrefixBits(0), h.PrefixBits(2));
}

// --------------------------------------------------------------- ExactHhh --

TEST(ExactHhhTest, SingleHeavyLeaf) {
  Hierarchy h = Hierarchy::Binary(16);
  stream::FrequencyOracle o(16);
  o.Add(5, 100);
  o.Add(3, 1);
  HhhList out = ExactHhh(o, h, 0.5);
  // Leaf 5 holds ~99% of the mass: reported at level 0; its ancestors'
  // conditioned counts are then ~1% and not reported.
  bool leaf_found = false;
  for (const auto& e : out) {
    if (e.prefix.level == 0 && e.prefix.value == 5) leaf_found = true;
    EXPECT_LE(e.prefix.level, 1);
  }
  EXPECT_TRUE(leaf_found);
}

TEST(ExactHhhTest, SiblingsAggregateToParent) {
  // No single leaf is heavy, but a parent prefix is: classic HHH shape.
  Hierarchy h = Hierarchy::Binary(16);
  stream::FrequencyOracle o(16);
  // Leaves 8..11 (prefix 0b10 at level 2) each get 25 => prefix mass 100.
  for (uint64_t leaf : {8u, 9u, 10u, 11u}) o.Add(leaf, 25);
  o.Add(0, 1);
  HhhList out = ExactHhh(o, h, 0.5);
  bool parent_found = false;
  for (const auto& e : out) {
    if (e.prefix.level == 2 && e.prefix.value == 0b10) parent_found = true;
    EXPECT_NE(e.prefix.level, 0);  // no leaf is individually heavy
  }
  EXPECT_TRUE(parent_found);
}

TEST(ExactHhhTest, ReportedDescendantsExcluded) {
  Hierarchy h = Hierarchy::Binary(16);
  stream::FrequencyOracle o(16);
  o.Add(4, 100);   // heavy leaf under prefix 0b0 at every level
  o.Add(5, 10);    // sibling, light
  HhhList out = ExactHhh(o, h, 0.3);
  // After reporting leaf 4, its ancestors' conditioned counts are ~10,
  // below the 33 threshold: only one report.
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].prefix.level, 0);
  EXPECT_EQ(out[0].prefix.value, 4u);
}

TEST(ExactConditionedCountTest, MatchesDefinition) {
  Hierarchy h = Hierarchy::Binary(8);
  stream::FrequencyOracle o(8);
  o.Add(0, 10);
  o.Add(1, 20);
  o.Add(2, 30);
  // Prefix {level 2, value 0} covers leaves 0..3.
  HhhList reported;
  EXPECT_DOUBLE_EQ(
      ExactConditionedCount(o, h, {2, 0}, reported), 60.0);
  reported.push_back({{0, 1}, 20.0});  // report leaf 1
  EXPECT_DOUBLE_EQ(
      ExactConditionedCount(o, h, {2, 0}, reported), 40.0);
}

// ---------------------------------------------------------------- Tms12Hhh --

TEST(Tms12HhhTest, FindsPlantedHierarchicalStructure) {
  Hierarchy h = Hierarchy::Bytes(16);  // 2 levels of bytes
  Tms12Hhh alg(h, 0.05);
  // 40% of traffic in prefix 0xAB??, spread over 16 leaves (2.5% each).
  for (int i = 0; i < 10000; ++i) {
    uint64_t item;
    if (i % 5 < 2) {
      item = 0xAB00 + uint64_t(i % 16);
    } else {
      item = uint64_t(i * 2654435761ULL) % 0x8000;
    }
    alg.Add(item);
  }
  HhhList out = alg.Query(0.2);
  bool prefix_found = false;
  for (const auto& e : out) {
    if (e.prefix.level == 1 && e.prefix.value == 0xAB) prefix_found = true;
  }
  EXPECT_TRUE(prefix_found);
}

TEST(Tms12HhhTest, AccuracyAxiom) {
  // Definition 2.10 (1): f*_p - eps m <= f_p <= f*_p (MG underestimates).
  Hierarchy h = Hierarchy::Binary(256);
  const double eps = 0.1;
  Tms12Hhh alg(h, eps);
  stream::FrequencyOracle o(256);
  wbs::RandomTape tape(31);
  const uint64_t m = 5000;
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t item = tape.UniformInt(16);  // concentrated support
    alg.Add(item);
    o.Add(item);
  }
  for (const auto& e : alg.Query(0.3)) {
    double truth = ExactConditionedCount(o, h, e.prefix, {});
    EXPECT_LE(e.estimate, truth + 1e-9);
    EXPECT_GE(e.estimate, truth - eps * double(m) - 1e-9);
  }
}

TEST(Tms12HhhTest, CoverageAxiom) {
  // Definition 2.10 (2): any unreported prefix has uncovered mass <= ~gamma m
  // (we allow the eps-slack the approximate algorithm is entitled to).
  Hierarchy h = Hierarchy::Binary(64);
  const double eps = 0.05, gamma = 0.2;
  Tms12Hhh alg(h, eps);
  stream::FrequencyOracle o(64);
  wbs::RandomTape tape(32);
  const uint64_t m = 8000;
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t item = tape.UniformInt(64);
    alg.Add(item);
    o.Add(item);
  }
  HhhList reported = alg.Query(gamma);
  for (int level = 0; level <= h.height(); ++level) {
    for (uint64_t v = 0; v < (uint64_t(64) >> level); ++v) {
      Prefix p{level, v};
      bool is_reported = false;
      for (const auto& e : reported) {
        if (e.prefix == p) is_reported = true;
      }
      if (is_reported) continue;
      double uncovered = ExactConditionedCount(o, h, p, reported);
      EXPECT_LE(uncovered, (gamma + 2 * eps) * double(m))
          << "level " << level << " value " << v;
    }
  }
}

TEST(Tms12HhhTest, DeterministicReplay) {
  Hierarchy h = Hierarchy::Bytes(16);
  Tms12Hhh a(h, 0.1), b(h, 0.1);
  for (int i = 0; i < 3000; ++i) {
    uint64_t item = uint64_t(i * i) % 60000;
    a.Add(item);
    b.Add(item);
  }
  auto la = a.Query(0.2), lb = b.Query(0.2);
  ASSERT_EQ(la.size(), lb.size());
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_TRUE(la[i].prefix == lb[i].prefix);
    EXPECT_DOUBLE_EQ(la[i].estimate, lb[i].estimate);
  }
}

// ---------------------------------------------------------------- BernHhh --

TEST(BernHhhTest, FindsHeavyPrefixThroughSampling) {
  Hierarchy h = Hierarchy::Bytes(16);
  int found = 0;
  for (int trial = 0; trial < 5; ++trial) {
    wbs::RandomTape tape(3300 + trial);
    const uint64_t m = 40000;
    BernHhh alg(h, 1 << 16, m, 0.1, 0.05, &tape);
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t item = (i % 5 < 2) ? 0xCD00 + (i % 16)
                                  : (i * 2654435761ULL) % 0x8000;
      alg.Add(item);
    }
    for (const auto& e : alg.Query(0.2)) {
      if (e.prefix.level == 1 && e.prefix.value == 0xCD) ++found;
    }
  }
  EXPECT_GE(found, 4);
}

TEST(BernHhhTest, EstimatesRescaledToStream) {
  wbs::RandomTape tape(34);
  Hierarchy h = Hierarchy::Binary(16);
  const uint64_t m = 30000;
  BernHhh alg(h, 16, m, 0.2, 0.1, &tape);
  for (uint64_t i = 0; i < m; ++i) alg.Add(3);
  HhhList out = alg.Query(0.5);
  ASSERT_FALSE(out.empty());
  // The leaf (or an ancestor) carries an estimate near m, not near the
  // sampled count.
  double max_est = 0;
  for (const auto& e : out) max_est = std::max(max_est, e.estimate);
  EXPECT_NEAR(max_est, double(m), 0.3 * double(m));
}

// --------------------------------------------------------------- RobustHhh --

TEST(RobustHhhTest, FindsPlantedPrefixAcrossScales) {
  Hierarchy h = Hierarchy::Bytes(16);
  for (uint64_t m : {5000u, 50000u}) {
    int found = 0;
    for (int trial = 0; trial < 3; ++trial) {
      wbs::RandomTape tape(m + trial);
      RobustHhh alg(h, 1 << 16, 0.1, 0.25, 0.25, &tape);
      for (uint64_t i = 0; i < m; ++i) {
        uint64_t item = (i % 2 == 0) ? 0xEE00 + (i % 8)
                                     : (i * 2654435761ULL) % 0x8000;
        ASSERT_TRUE(alg.Update({item}).ok());
      }
      for (const auto& e : alg.Query()) {
        if (e.prefix.level == 1 && e.prefix.value == 0xEE) ++found;
      }
    }
    EXPECT_GE(found, 2) << "m=" << m;
  }
}

TEST(RobustHhhTest, SpaceFlatInMWhileTms12Grows) {
  // Theorem 2.14 vs Theorem 2.11: the deterministic summary's counters grow
  // with m (log m bits per counter per level) while the robust algorithm's
  // counters hold m-independent sampled counts. Compare the growth.
  Hierarchy h = Hierarchy::Bytes(16);
  const double eps = 0.1;
  auto run_robust = [&](uint64_t m) {
    wbs::RandomTape tape(36);
    RobustHhh robust(h, 1 << 16, eps, 0.25, 0.25, &tape);
    for (uint64_t i = 0; i < m; ++i) {
      EXPECT_TRUE(robust.Update({i % 5}).ok());  // concentrated stream
    }
    return robust.SpaceBits();
  };
  auto run_det = [&](uint64_t m) {
    Tms12Hhh det(h, eps);
    for (uint64_t i = 0; i < m; ++i) det.Add(i % 5);
    return det.SpaceBits();
  };
  const uint64_t m1 = 1 << 12, m2 = 1 << 20;  // 256x
  uint64_t r1 = run_robust(m1), r2 = run_robust(m2);
  uint64_t robust_growth = r2 > r1 ? r2 - r1 : 0;
  uint64_t det_growth = run_det(m2) - run_det(m1);
  // det: (h+1) levels x 5 counters x ~8 bits each = ~100+ bits of growth.
  EXPECT_GE(det_growth, 40u);
  EXPECT_LE(robust_growth, det_growth / 2);
}

TEST(RobustHhhTest, RejectsOutOfUniverse) {
  Hierarchy h = Hierarchy::Binary(64);
  wbs::RandomTape tape(37);
  RobustHhh alg(h, 64, 0.2, 0.3, 0.25, &tape);
  EXPECT_FALSE(alg.Update({64}).ok());
}

TEST(RobustHhhTest, GuessRotationAdvances) {
  Hierarchy h = Hierarchy::Binary(16);
  wbs::RandomTape tape(38);
  RobustHhh alg(h, 16, 0.25, 0.3, 0.25, &tape);  // base 64
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(alg.Update({1}).ok());
  EXPECT_GE(alg.active_guess_exponent(), 2);
}

// Golden pins, recorded once from the reference implementation: the
// Query() list (prefixes and estimate bits, in order), the Morris clock's
// register (from SerializeState), the active guess exponent, the tape's
// draw count, SpaceBits and a digest of the serialized state.
struct HhhPin {
  uint64_t list_size = 0;
  uint64_t list_digest = 0;
  uint64_t clock_register = 0;
  uint64_t guess_exponent = 0;
  uint64_t words_consumed = 0;
  uint64_t space_bits = 0;
  uint64_t state_digest = 0;
  bool operator==(const HhhPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HhhPin& p) {
  return os << std::hex << "{" << p.list_size << ", 0x" << p.list_digest
            << ", 0x" << p.clock_register << ", 0x" << p.guess_exponent
            << ", 0x" << p.words_consumed << ", 0x" << p.space_bits << ", 0x"
            << p.state_digest << "}" << std::dec;
}

TEST(RobustHhhTest, GoldenPins) {
  struct Case {
    double eps;
    uint64_t n;
    uint64_t seed;
    HhhPin want;
  };
  // eps = 0.25 (guess base 64) rotates three times in 300k updates.
  const Case cases[] = {
      {0.25, 300000, 301,
       {2, 0x832539e8580561bc, 0xc6, 4, 900000, 0x1e5, 0x4f11fceca8c78212}},
      {0.1, 100000, 302,
       {1, 0xe27cee3c5aa46a82, 0xb1, 3, 300000, 0x345, 0x6c30d0c38b9c6fbb}},
  };
  const Hierarchy h = Hierarchy::Bytes(16);
  for (const Case& c : cases) {
    const uint64_t universe = 1 << 16;
    wbs::RandomTape tape(c.seed);
    tape.set_logging(false);
    RobustHhh alg(h, universe, c.eps, 0.3, 0.25, &tape);
    for (uint64_t item : golden::SkewedItems(c.n, universe, c.seed)) {
      ASSERT_TRUE(alg.Update({item}).ok());
    }
    core::StateWriter w;
    alg.SerializeState(&w);
    HhhPin got;
    const HhhList list = alg.Query();
    got.list_size = list.size();
    for (const auto& e : list) {
      for (uint64_t word : {uint64_t(e.prefix.level), e.prefix.value,
                            golden::Bits(e.estimate)}) {
        got.list_digest = golden::Fold(got.list_digest, word);
      }
    }
    got.guess_exponent = uint64_t(alg.active_guess_exponent());
    got.clock_register = w.words().at(1);
    got.words_consumed = tape.words_consumed();
    got.space_bits = alg.SpaceBits();
    got.state_digest = golden::Digest(w.words());
    EXPECT_EQ(w.words().at(0), got.guess_exponent);
    EXPECT_EQ(got, c.want) << "eps=" << c.eps;
  }
}

}  // namespace
}  // namespace wbs::hhh
