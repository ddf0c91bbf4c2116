// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Morris approximate counters (Morris'78), the workhorse the paper proves
// white-box robust (Lemma 2.1): a (1+eps)-approximation to the number of
// increments with probability 1-delta in
//   O(log log n + log 1/eps + log log m + log 1/delta) bits.
//
// Robustness intuition: the counter consumes its randomness *after* each
// update and its estimate concentrates for every fixed count, so an adversary
// who sees the register cannot make the estimate wrong — it can only decide
// whether to keep incrementing, and the guarantee is count-wise.

#ifndef WBS_COUNTER_MORRIS_H_
#define WBS_COUNTER_MORRIS_H_

#include <cmath>
#include <cstdint>

#include "common/bits.h"
#include "common/random.h"
#include "common/status.h"
#include "core/game.h"
#include "core/state_view.h"
#include "stream/updates.h"

namespace wbs::counter {

/// A single Morris register with growth base (1 + a): on each increment the
/// register X advances with probability (1+a)^-X; the estimate is
/// ((1+a)^X - 1) / a, which is unbiased with Var <= a * n^2 / 2.
///
/// Both doubles are cached: `advance_p_` = (1+a)^-X and `estimate_` =
/// ((1+a)^X - 1)/a are recomputed, with exactly those expressions, only when
/// X advances (about log_{1+a} n times over n increments), so an increment
/// costs one tape draw and one compare. They are derived from the public
/// (X, a) and are not charged to SpaceBits().
class MorrisRegister {
 public:
  /// `a` > 0 is the accuracy knob; see MorrisCounter for the (eps, delta)
  /// parameterization.
  MorrisRegister(double a, wbs::RandomTape* tape) : a_(a), tape_(tape) {
    Derive();
  }

  /// Processes one increment.
  void Increment() {
    if (tape_->UniformDouble() < advance_p_) {
      ++x_;
      Derive();
    }
  }

  /// Current estimate of the number of increments.
  double Estimate() const { return estimate_; }

  uint64_t register_value() const { return x_; }
  double a() const { return a_; }

  /// Bits to store the register: bit_width(X). X <= log_{1+a}(m) + O(1)
  /// with overwhelming probability, so this is
  /// O(log(log(m)/a)) = O(log log m + log 1/a).
  uint64_t SpaceBits() const { return wbs::BitsForValue(x_); }

 private:
  void Derive() {
    advance_p_ = std::pow(1.0 + a_, -double(x_));
    estimate_ = (std::pow(1.0 + a_, double(x_)) - 1.0) / a_;
  }

  double a_;
  wbs::RandomTape* tape_;
  uint64_t x_ = 0;
  double advance_p_ = 1.0;  // cached (1+a)^-X
  double estimate_ = 0.0;   // cached ((1+a)^X - 1) / a
};

/// (eps, delta) Morris counter: a single register with a = eps^2 * delta / 3
/// (Chebyshev: Pr[|est - n| > eps n] <= a/(2 eps^2) <= delta), achieving
/// Lemma 2.1's bound. For tighter tapes use MedianMorrisCounter below.
class MorrisCounter final
    : public core::StreamAlg<stream::BitUpdate, double> {
 public:
  MorrisCounter(double eps, double delta, wbs::RandomTape* tape)
      : eps_(eps),
        delta_(delta),
        reg_(eps * eps * delta / 3.0, tape),
        tape_(tape) {}

  Status Update(const stream::BitUpdate& u) override {
    if (u.bit != 0) reg_.Increment();
    return Status::OK();
  }

  /// Estimate of the number of 1s seen so far.
  double Query() const override { return reg_.Estimate(); }

  void SerializeState(core::StateWriter* w) const override {
    w->PutU64(reg_.register_value());
    w->PutDouble(reg_.a());
  }

  uint64_t SpaceBits() const override { return reg_.SpaceBits(); }

  wbs::RandomTape* MutableTape() override { return tape_; }

  double eps() const { return eps_; }
  double delta() const { return delta_; }

 private:
  double eps_;
  double delta_;
  MorrisRegister reg_;
  wbs::RandomTape* tape_;
};

/// Median-of-means amplification: r = O(log 1/delta) groups of b = O(1/eps^2)
/// registers with constant a. More registers but exponentially better failure
/// probability per register bit; used by tests to cross-check concentration.
class MedianMorrisCounter final
    : public core::StreamAlg<stream::BitUpdate, double> {
 public:
  MedianMorrisCounter(double eps, double delta, wbs::RandomTape* tape);

  Status Update(const stream::BitUpdate& u) override;
  double Query() const override;
  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;
  wbs::RandomTape* MutableTape() override { return tape_; }

 private:
  int groups_;
  int per_group_;
  std::vector<MorrisRegister> regs_;
  wbs::RandomTape* tape_;
};

/// Exact counter baseline: Theta(log m) bits, trivially correct.
class ExactCounter final : public core::StreamAlg<stream::BitUpdate, double> {
 public:
  Status Update(const stream::BitUpdate& u) override {
    if (u.bit != 0) ++count_;
    return Status::OK();
  }
  double Query() const override { return double(count_); }
  void SerializeState(core::StateWriter* w) const override {
    w->PutU64(count_);
  }
  uint64_t SpaceBits() const override { return wbs::BitsForValue(count_); }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

}  // namespace wbs::counter

#endif  // WBS_COUNTER_MORRIS_H_
