// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The paper's white-box robust eps-L1 heavy hitters (Theorem 1.1):
//
//   BernMG (Algorithm 1): Bernoulli-sample the stream at the Theorem 2.3
//   rate for a *guessed* stream length m, feed the samples to Misra-Gries.
//
//   RobustL1HeavyHitters (Algorithm 2): a Morris counter tracks the stream
//   length within a constant factor in O(log log m) bits; two live BernMG
//   instances with guesses (16/eps)^c and (16/eps)^{c+1} are rotated as the
//   Morris clock crosses successive powers. An instance opened "late" has
//   missed at most an eps/16 prefix of its target length, so every
//   eps-L1-heavy item is still Omega(eps)-heavy on its substream.
//
// Total space: O(1/eps (log n + log 1/eps) + log log m) — strictly better
// than the deterministic Misra-Gries O(1/eps (log m + log n)) once
// log m >> log n (Section 1.1.1).
//
// Cached derived values: the rotation threshold GuessFor(c) is kept in
// `active_guess_` and recomputed only when c changes (construction and
// Rotate()); the Morris clock caches its own advance probability and
// estimate (counter/morris.h). Both follow from the public (c, X, eps), so
// neither is charged to SpaceBits().

#ifndef WBS_HEAVYHITTERS_ROBUST_HH_H_
#define WBS_HEAVYHITTERS_ROBUST_HH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/game.h"
#include "counter/morris.h"
#include "heavyhitters/misra_gries.h"
#include "sampling/bernoulli.h"
#include "stream/updates.h"

namespace wbs::hh {

/// Query answer for heavy hitter problems: the candidate list with rescaled
/// frequency estimates.
using HhList = std::vector<WeightedItem>;

/// Algorithm 1: BernMG(n, m, eps, delta) — Bernoulli sampling at rate
/// p = C log(n/delta) / ((eps/2)^2 m) in front of Misra-Gries with
/// threshold eps/2 (k = ceil(4/eps) counters).
class BernMG {
 public:
  BernMG(uint64_t universe, uint64_t m_guess, double eps, double delta,
         wbs::RandomTape* tape);

  void Add(uint64_t item);

  /// Estimated stream frequency of `item` (sampled count / p).
  double Estimate(uint64_t item) const;

  /// Tracked items with estimates rescaled to stream frequencies.
  HhList List() const;

  uint64_t universe() const { return universe_; }
  uint64_t m_guess() const { return m_guess_; }
  double p() const { return sampler_.p(); }
  uint64_t samples_kept() const { return sampler_.kept(); }
  const MisraGries& mg() const { return mg_; }

  uint64_t SpaceBits() const;

 private:
  uint64_t universe_;
  uint64_t m_guess_;
  sampling::BernoulliSampler sampler_;
  MisraGries mg_;
};

/// Algorithm 2: the white-box robust eps-L1 heavy hitters of Theorem 1.1.
class RobustL1HeavyHitters final
    : public core::StreamAlg<stream::ItemUpdate, HhList> {
 public:
  /// `universe` = n, `eps` the heavy hitter threshold, `delta_total` the
  /// overall failure budget (split across instance rotations).
  RobustL1HeavyHitters(uint64_t universe, double eps, double delta_total,
                       wbs::RandomTape* tape);

  Status Update(const stream::ItemUpdate& u) override;

  /// The current candidate list: all eps-L1-heavy items are present with
  /// probability >= 3/4, with additive-eps*L1-accurate estimates.
  HhList Query() const override;

  /// Estimated frequency of a single item from the active instance.
  double Estimate(uint64_t item) const;

  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;
  wbs::RandomTape* MutableTape() override { return tape_; }

  double eps() const { return eps_; }
  uint64_t updates_seen_exact() const { return exact_t_; }  // test-only
  int active_guess_exponent() const { return c_; }

 private:
  /// (16/eps)^e, saturating.
  double GuessFor(int e) const;
  void Rotate();

  uint64_t universe_;
  double eps_;
  double delta_total_;
  wbs::RandomTape* tape_;

  counter::MorrisRegister clock_;   // (1 + O(eps))-approximate timer
  int c_;                           // active guess exponent
  double active_guess_;             // cached GuessFor(c_): rotate at this
  std::unique_ptr<BernMG> active_;  // guess (16/eps)^c
  std::unique_ptr<BernMG> next_;    // guess (16/eps)^{c+1}
  uint64_t exact_t_ = 0;            // ground truth for tests; NOT part of the
                                    // algorithm's state (never serialized,
                                    // never charged to SpaceBits)
};

}  // namespace wbs::hh

#endif  // WBS_HEAVYHITTERS_ROBUST_HH_H_
