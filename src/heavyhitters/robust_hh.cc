// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "heavyhitters/robust_hh.h"

#include <algorithm>
#include <cmath>

namespace wbs::hh {

namespace {

size_t CountersForEps(double eps) {
  // Misra-Gries with threshold eps/2 needs ceil(4/eps) counters so that the
  // additive error on the sampled substream is at most (eps/4) * samples.
  return size_t(std::ceil(4.0 / eps));
}

}  // namespace

BernMG::BernMG(uint64_t universe, uint64_t m_guess, double eps, double delta,
               wbs::RandomTape* tape)
    : universe_(universe),
      m_guess_(m_guess),
      sampler_(sampling::BernoulliRate(universe, m_guess, eps / 2, delta),
               tape),
      mg_(CountersForEps(eps)) {}

void BernMG::Add(uint64_t item) {
  if (sampler_.Offer()) mg_.Add(item);
}

double BernMG::Estimate(uint64_t item) const {
  return double(mg_.Estimate(item)) * sampler_.InverseRate();
}

HhList BernMG::List() const {
  HhList out = mg_.List();
  for (auto& wi : out) wi.estimate *= sampler_.InverseRate();
  return out;
}

uint64_t BernMG::SpaceBits() const {
  // The sampler's rate is a public parameter (not charged); the state is the
  // Misra-Gries summary over *sampled* counts, whose counters are bounded by
  // the (small) sample size — this is where the log m -> log(samples) saving
  // comes from.
  return mg_.SpaceBits(universe_);
}

RobustL1HeavyHitters::RobustL1HeavyHitters(uint64_t universe, double eps,
                                           double delta_total,
                                           wbs::RandomTape* tape)
    : universe_(universe),
      eps_(eps),
      delta_total_(delta_total),
      tape_(tape),
      // The Morris clock only needs a constant-factor estimate of t; a fixed
      // accuracy well below the 16/eps guess ratio suffices.
      clock_(/*a=*/0.05, tape),
      c_(1),
      active_guess_(GuessFor(c_)) {
  // Per-instance failure budget: the number of rotations over a length-m
  // stream is log_{16/eps}(m); delta/(2 log m) per instance union-bounds to
  // delta_total. Without m we budget for m <= 2^40 conservatively — the
  // delta enters the space bound only as log(1/delta).
  const double per_instance_delta = delta_total_ / 80.0;
  active_ = std::make_unique<BernMG>(universe_, uint64_t(active_guess_), eps_,
                                     per_instance_delta, tape_);
  next_ = std::make_unique<BernMG>(universe_, uint64_t(GuessFor(c_ + 1)),
                                   eps_, per_instance_delta, tape_);
}

double RobustL1HeavyHitters::GuessFor(int e) const {
  double base = 16.0 / eps_;
  double g = std::pow(base, double(e));
  return std::min(g, 9e18);
}

void RobustL1HeavyHitters::Rotate() {
  const double per_instance_delta = delta_total_ / 80.0;
  ++c_;
  active_guess_ = GuessFor(c_);
  active_ = std::move(next_);
  next_ = std::make_unique<BernMG>(universe_, uint64_t(GuessFor(c_ + 1)),
                                   eps_, per_instance_delta, tape_);
}

Status RobustL1HeavyHitters::Update(const stream::ItemUpdate& u) {
  if (u.item >= universe_) {
    return Status::OutOfRange("RobustL1HeavyHitters: item out of universe");
  }
  ++exact_t_;
  clock_.Increment();
  active_->Add(u.item);
  next_->Add(u.item);
  // Rotate when the approximate clock crosses the active guess.
  if (clock_.Estimate() >= active_guess_) Rotate();
  return Status::OK();
}

HhList RobustL1HeavyHitters::Query() const { return active_->List(); }

double RobustL1HeavyHitters::Estimate(uint64_t item) const {
  return active_->Estimate(item);
}

void RobustL1HeavyHitters::SerializeState(core::StateWriter* w) const {
  w->PutU64(uint64_t(c_));
  w->PutU64(clock_.register_value());
  for (const BernMG* inst : {active_.get(), next_.get()}) {
    w->PutU64(inst->m_guess());
    w->PutDouble(inst->p());
    auto list = inst->mg().List();
    w->PutU64(list.size());
    for (const auto& wi : list) {
      w->PutU64(wi.item);
      w->PutDouble(wi.estimate);
    }
  }
}

uint64_t RobustL1HeavyHitters::SpaceBits() const {
  // Morris clock + guess exponent + two BernMG instances.
  return clock_.SpaceBits() + wbs::BitsForValue(uint64_t(c_)) +
         active_->SpaceBits() + next_->SpaceBits();
}

}  // namespace wbs::hh
