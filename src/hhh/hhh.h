// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The hierarchical heavy hitters problem (Definitions 2.9 / 2.10) and three
// solvers:
//   * ExactHhh        — offline ground truth (conditioned counts, Def 2.9);
//   * Tms12Hhh        — the deterministic [TMS12] algorithm (one SpaceSaving
//                       per level), Theorem 2.11: O(h/eps (log m + log n));
//   * BernHhh         — Algorithm 3: Bernoulli sampling in front of TMS12;
//   * RobustHhh       — Algorithm 4 / Theorem 2.14: Morris-clocked guess
//                       rotation, O(h/eps (log n + log 1/eps + ...) +
//                       log log m) bits, robust against white-box
//                       adversaries.

#ifndef WBS_HHH_HHH_H_
#define WBS_HHH_HHH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/game.h"
#include "counter/morris.h"
#include "heavyhitters/misra_gries.h"
#include "hhh/domain.h"
#include "sampling/bernoulli.h"
#include "stream/frequency_oracle.h"
#include "stream/updates.h"

namespace wbs::hhh {

/// One reported hierarchical heavy hitter.
struct HhhEntry {
  Prefix prefix;
  double estimate = 0;  ///< estimated (unconditioned) frequency f_p
};

using HhhList = std::vector<HhhEntry>;

/// Offline exact HHH per Definition 2.9: level-0 HHHs are the eps-L1 heavy
/// items; at level i, a prefix p is an HHH iff its conditioned count F(p) —
/// the mass of its descendants not below an already-reported HHH — is
/// >= threshold_fraction * m.
HhhList ExactHhh(const stream::FrequencyOracle& oracle,
                 const Hierarchy& hierarchy, double threshold_fraction);

/// Exact conditioned count F(p) given a reported set (test utility).
double ExactConditionedCount(const stream::FrequencyOracle& oracle,
                             const Hierarchy& hierarchy, const Prefix& p,
                             const HhhList& reported);

/// Deterministic [TMS12]: one Misra-Gries-style summary per level with
/// k = ceil(2 h / eps) counters each; reporting runs bottom-up with
/// conditioned counts. Deterministic, hence white-box robust (Theorem 2.11).
class Tms12Hhh {
 public:
  Tms12Hhh(const Hierarchy& hierarchy, double eps);

  void Add(uint64_t item, uint64_t w = 1);

  /// Approximate HHH set at threshold `gamma` (>= eps), per Definition 2.10.
  HhhList Query(double gamma) const;

  /// Estimated (unconditioned) frequency of a prefix.
  double Estimate(const Prefix& p) const;

  uint64_t processed() const { return processed_; }
  const Hierarchy& hierarchy() const { return hierarchy_; }
  double eps() const { return eps_; }

  uint64_t SpaceBits() const;

 private:
  Hierarchy hierarchy_;
  double eps_;
  uint64_t processed_ = 0;
  std::vector<hh::MisraGries> levels_;  // index = level
};

/// Algorithm 3: BernHHH(n, m, eps, delta) — sample at the Theorem 2.12 rate
/// for the guessed length, feed a TMS12 instance with threshold eps/2.
class BernHhh {
 public:
  BernHhh(const Hierarchy& hierarchy, uint64_t universe, uint64_t m_guess,
          double eps, double delta, wbs::RandomTape* tape);

  void Add(uint64_t item);
  HhhList Query(double gamma) const;

  uint64_t m_guess() const { return m_guess_; }
  double p() const { return sampler_.p(); }
  uint64_t SpaceBits() const { return inner_.SpaceBits(); }

 private:
  uint64_t m_guess_;
  sampling::BernoulliSampler sampler_;
  Tms12Hhh inner_;
};

/// Algorithm 4 / Theorem 2.14: the white-box robust HHH algorithm.
///
/// Cached derived values: the rotation threshold GuessFor(c) is kept in
/// `active_guess_` and recomputed only when c changes (construction and
/// Rotate()); the Morris clock caches its own advance probability and
/// estimate (counter/morris.h). Both follow from the public (c, X, eps), so
/// neither is charged to SpaceBits().
class RobustHhh final : public core::StreamAlg<stream::ItemUpdate, HhhList> {
 public:
  RobustHhh(const Hierarchy& hierarchy, uint64_t universe, double eps,
            double gamma, double delta_total, wbs::RandomTape* tape);

  Status Update(const stream::ItemUpdate& u) override;
  HhhList Query() const override;
  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;
  wbs::RandomTape* MutableTape() override { return tape_; }

  int active_guess_exponent() const { return c_; }

 private:
  double GuessFor(int e) const;
  void Rotate();

  Hierarchy hierarchy_;
  uint64_t universe_;
  double eps_;
  double gamma_;
  double delta_total_;
  wbs::RandomTape* tape_;

  counter::MorrisRegister clock_;
  int c_;
  double active_guess_;  // cached GuessFor(c_): rotate at this
  std::unique_ptr<BernHhh> active_;
  std::unique_ptr<BernHhh> next_;
};

}  // namespace wbs::hhh

#endif  // WBS_HHH_HHH_H_
