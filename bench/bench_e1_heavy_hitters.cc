// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Experiment E1 (Theorem 1.1 / Algorithm 2 vs Theorem 2.2):
//   (a) space of the robust eps-L1 heavy hitter algorithm vs Misra-Gries as
//       the stream length m grows — the robust curve must be flat in m while
//       MG grows like (1/eps) log m;
//   (b) recall/precision of both on planted-heavy-hitter workloads;
//   (c) robustness of Algorithm 2 under an adaptive white-box adversary.
//
// A checked paper test (ctest label `paper`): exits nonzero when a checked
// claim fails. E1a checks that mg_bits grows by exactly one bit per hot
// counter per doubling of m; "robust_bits flat in m" is printed, not
// checked, since the 5-seed means do not settle that shape. E1b checks
// recall >= 3/4 and est_err/L1 <= eps in every row, and E1c a survival rate
// >= 6/8.

#include <cmath>
#include <set>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/game.h"
#include "heavyhitters/misra_gries.h"
#include "heavyhitters/robust_hh.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

namespace wbs {
namespace {

constexpr double kEps = 0.1;
constexpr uint64_t kUniverse = uint64_t{1} << 20;

bool SpaceVsStreamLength() {
  bench::Banner(
      "E1a: space vs stream length m (eps = 0.1, n = 2^20)",
      "Thm 1.1: O(1/eps(log n + log 1/eps) + log log m) bits vs "
      "Misra-Gries O(1/eps(log m + log n)) [Thm 2.2]");
  bench::Table t({"log2(m)", "robust_bits", "mg_bits", "mg_worst_bits",
                  "robust/mg_wc"});
  const size_t mg_k = size_t(std::ceil(2.0 / kEps));
  // The workload below has 16 hot items, so 16 counters each gain one bit
  // per doubling of m: +32 bits per row (m grows 4x per row).
  const uint64_t hot = 16;
  bool mg_grows = true;
  uint64_t prev_mg_bits = 0;
  for (int logm = 12; logm <= 22; logm += 2) {
    const uint64_t m = uint64_t{1} << logm;
    // Average the robust footprint over seeds: the instantaneous value
    // oscillates with the Morris-clocked instance rotations.
    uint64_t robust_sum = 0;
    const int seeds = 5;
    for (int seed = 0; seed < seeds; ++seed) {
      wbs::RandomTape tape{uint64_t(logm * 10 + seed)};
      tape.set_logging(false);
      hh::RobustL1HeavyHitters robust(kUniverse, kEps, 0.25, &tape);
      for (uint64_t i = 0; i < m; ++i) (void)robust.Update({i % 16});
      robust_sum += robust.SpaceBits();
    }
    const uint64_t robust_bits = robust_sum / seeds;
    hh::MisraGries mg(mg_k);
    // Concentrated workload (few hot items): the regime where MG counters
    // genuinely grow with m.
    for (uint64_t i = 0; i < m; ++i) mg.Add(i % hot);
    uint64_t mg_worst =
        hh::MisraGries::WorstCaseSpaceBits(mg_k, kUniverse, m);
    const uint64_t mg_bits = mg.SpaceBits(kUniverse);
    if (logm > 12 && mg_bits != prev_mg_bits + 2 * hot) mg_grows = false;
    prev_mg_bits = mg_bits;
    t.Row()
        .Cell(logm)
        .Cell(robust_bits)
        .Cell(mg_bits)
        .Cell(mg_worst)
        .Cell(double(robust_bits) / double(mg_worst), 2);
  }
  std::printf(
      "expected shape: robust_bits ~flat in m (not checked); mg columns grow "
      "~%zu bits per doubling of m (one bit per counter).\n", size_t(hot));
  return bench::Check("E1a", mg_grows,
                      "mg_bits grows by exactly 16 bits per doubling of m, "
                      "+32 per row");
}

bool RecallPrecision() {
  bench::Banner("E1b: recall of planted eps-heavy hitters (eps = 0.1)",
                "Thm 1.1: all eps-L1-heavy items reported w.p. >= 3/4, "
                "estimates within eps*L1");
  bench::Table t({"log2(m)", "trials", "recall", "est_err/L1"});
  bool held = true;
  for (int logm = 12; logm <= 18; logm += 2) {
    const uint64_t m = uint64_t{1} << logm;
    int planted_total = 0, found_total = 0;
    double worst_err = 0;
    for (int trial = 0; trial < 5; ++trial) {
      wbs::RandomTape tape{uint64_t(logm * 100 + trial)};
      std::vector<uint64_t> planted;
      auto s = stream::PlantedHeavyHitterStream(kUniverse, m, 3, 2 * kEps,
                                                &tape, &planted);
      hh::RobustL1HeavyHitters alg(kUniverse, kEps, 0.25, &tape);
      tape.set_logging(false);
      stream::FrequencyOracle truth(kUniverse);
      for (const auto& u : s) {
        truth.Add(u.item);
        (void)alg.Update({u.item});
      }
      std::set<uint64_t> listed;
      for (const auto& wi : alg.Query()) listed.insert(wi.item);
      for (uint64_t id : planted) {
        ++planted_total;
        if (listed.count(id)) {
          ++found_total;
          double err = std::abs(alg.Estimate(id) -
                                double(truth.Frequency(id))) /
                       double(truth.L1());
          worst_err = std::max(worst_err, err);
        }
      }
    }
    const double recall = double(found_total) / double(planted_total);
    if (recall < 0.75 || worst_err > kEps) held = false;
    t.Row()
        .Cell(logm)
        .Cell(5)
        .Cell(recall, 3)
        .Cell(worst_err, 4);
  }
  return bench::Check("E1b", held,
                      "recall >= 3/4 and est_err/L1 <= eps in every row");
}

class AdaptiveLowAdversary final
    : public core::Adversary<stream::ItemUpdate, hh::HhList> {
 public:
  AdaptiveLowAdversary(const hh::RobustL1HeavyHitters* victim,
                       uint64_t rounds)
      : victim_(victim), rounds_(rounds) {}
  std::optional<stream::ItemUpdate> NextUpdate(const core::StateView& view,
                                               const hh::HhList&) override {
    if (view.round >= rounds_) return std::nullopt;
    if (view.round % 3 == 0) return stream::ItemUpdate{999};
    uint64_t best = 1;
    double best_est = 1e300;
    for (uint64_t c = 1; c <= 16; ++c) {
      double e = victim_->Estimate(c);
      if (e < best_est) {
        best_est = e;
        best = c;
      }
    }
    return stream::ItemUpdate{best};
  }

 private:
  const hh::RobustL1HeavyHitters* victim_;
  uint64_t rounds_;
};

bool AdaptiveGame() {
  bench::Banner("E1c: white-box adaptive adversary vs Algorithm 2",
                "Thm 1.1: robust w.p. >= 3/4 against a white-box adversary "
                "(here: estimate-minimizing adaptive strategy)");
  bench::Table t({"trial", "rounds", "survived", "space_bits"});
  int survived_count = 0;
  const int trials = 8;
  for (int trial = 0; trial < trials; ++trial) {
    wbs::RandomTape tape(9100 + uint64_t(trial));
    hh::RobustL1HeavyHitters alg(1 << 10, 0.2, 0.25, &tape);
    AdaptiveLowAdversary adv(&alg, 30000);
    stream::FrequencyOracle truth(1 << 10);
    auto result = core::RunGame<stream::ItemUpdate, hh::HhList>(
        &alg, &adv, 30000,
        [&](const stream::ItemUpdate& u) { truth.Add(u.item); },
        [&](uint64_t round, const hh::HhList& answer) {
          if (round < 5000) return true;
          for (const auto& wi : answer) {
            if (wi.item == 999) return true;  // the 1/3-heavy item
          }
          return false;
        });
    survived_count += result.algorithm_survived ? 1 : 0;
    t.Row()
        .Cell(trial)
        .Cell(result.rounds_played)
        .Cell(result.algorithm_survived)
        .Cell(result.max_space_bits);
  }
  std::printf("survival rate: %d/%d (paper guarantee: >= 3/4)\n",
              survived_count, trials);
  return bench::Check("E1c", 4 * survived_count >= 3 * trials,
                      "survival >= 6/8");
}

}  // namespace
}  // namespace wbs

int main() {
  bool held = wbs::SpaceVsStreamLength();
  held &= wbs::RecallPrecision();
  held &= wbs::AdaptiveGame();
  return held ? 0 : 1;
}
