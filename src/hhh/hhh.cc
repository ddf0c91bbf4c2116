// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "hhh/hhh.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace wbs::hhh {

std::string Hierarchy::ToString(const Prefix& p) const {
  std::ostringstream os;
  os << "L" << p.level << ":" << p.value;
  return os.str();
}

namespace {

// Mass of leaves under `q` that are not under any reported prefix strictly
// below q's level.
double UncoveredMassUnder(const stream::FrequencyOracle& oracle,
                          const Hierarchy& h, const Prefix& q,
                          const HhhList& reported) {
  double mass = 0;
  for (const auto& [item, f] : oracle.frequencies()) {
    Prefix leaf = h.PrefixOf(item, 0);
    if (!h.IsAncestorOrSelf(q, leaf)) continue;
    bool covered = false;
    for (const auto& r : reported) {
      if (r.prefix.level < q.level &&
          h.IsAncestorOrSelf(q, r.prefix) &&
          h.IsAncestorOrSelf(r.prefix, leaf)) {
        covered = true;
        break;
      }
    }
    if (!covered) mass += double(f);
  }
  return mass;
}

}  // namespace

double ExactConditionedCount(const stream::FrequencyOracle& oracle,
                             const Hierarchy& hierarchy, const Prefix& p,
                             const HhhList& reported) {
  return UncoveredMassUnder(oracle, hierarchy, p, reported);
}

HhhList ExactHhh(const stream::FrequencyOracle& oracle,
                 const Hierarchy& hierarchy, double threshold_fraction) {
  const double thresh = threshold_fraction * double(oracle.L1());
  HhhList reported;
  // covered[item] = true once some reported ancestor excludes this leaf.
  std::unordered_map<uint64_t, bool> covered;
  for (const auto& [item, f] : oracle.frequencies()) covered[item] = false;

  for (int level = 0; level <= hierarchy.height(); ++level) {
    // Aggregate uncovered mass by level-`level` prefix.
    std::unordered_map<uint64_t, double> mass;
    std::unordered_map<uint64_t, double> full_mass;
    for (const auto& [item, f] : oracle.frequencies()) {
      Prefix p = hierarchy.PrefixOf(item, level);
      full_mass[p.value] += double(f);
      if (!covered[item]) mass[p.value] += double(f);
    }
    // Report this level, then mark leaves under reported prefixes covered.
    std::vector<uint64_t> newly;
    for (const auto& [value, m] : mass) {
      if (m >= thresh) {
        reported.push_back({{level, value}, full_mass[value]});
        newly.push_back(value);
      }
    }
    for (auto& [item, cov] : covered) {
      if (cov) continue;
      Prefix p = hierarchy.PrefixOf(item, level);
      if (std::find(newly.begin(), newly.end(), p.value) != newly.end()) {
        cov = true;
      }
    }
  }
  return reported;
}

Tms12Hhh::Tms12Hhh(const Hierarchy& hierarchy, double eps)
    : hierarchy_(hierarchy), eps_(eps) {
  const size_t k = size_t(std::ceil(2.0 / eps));
  levels_.reserve(size_t(hierarchy_.height()) + 1);
  for (int l = 0; l <= hierarchy_.height(); ++l) {
    levels_.emplace_back(k);
  }
}

void Tms12Hhh::Add(uint64_t item, uint64_t w) {
  processed_ += w;
  for (int l = 0; l <= hierarchy_.height(); ++l) {
    levels_[size_t(l)].Add(hierarchy_.PrefixOf(item, l).value, w);
  }
}

double Tms12Hhh::Estimate(const Prefix& p) const {
  if (p.level < 0 || p.level >= int(levels_.size())) return 0;
  return double(levels_[size_t(p.level)].Estimate(p.value));
}

HhhList Tms12Hhh::Query(double gamma) const {
  HhhList reported;
  std::vector<double> conditioned_of_reported;
  const double m = double(processed_);
  for (int level = 0; level <= hierarchy_.height(); ++level) {
    const auto& mg = levels_[size_t(level)];
    const double level_err = mg.ErrorBound();
    for (const auto& wi : mg.List()) {
      Prefix p{level, wi.item};
      // Conditioned estimate: unconditioned minus the conditioned masses of
      // reported descendants (those masses are disjoint by construction).
      double cond = wi.estimate;
      for (size_t i = 0; i < reported.size(); ++i) {
        if (reported[i].prefix.level < level &&
            hierarchy_.IsAncestorOrSelf(p, reported[i].prefix)) {
          cond -= conditioned_of_reported[i];
        }
      }
      // Report if the conditioned mass could reach gamma * m given the
      // one-sided MG error (coverage direction of Definition 2.10).
      if (cond + level_err >= gamma * m) {
        reported.push_back({p, wi.estimate});
        conditioned_of_reported.push_back(std::max(cond, 0.0));
      }
    }
  }
  return reported;
}

uint64_t Tms12Hhh::SpaceBits() const {
  uint64_t bits = 0;
  for (int l = 0; l < int(levels_.size()); ++l) {
    // Keys at level l cost PrefixBits(l); counters cost their value width.
    for (const auto& wi : levels_[size_t(l)].List()) {
      bits += hierarchy_.PrefixBits(l) +
              wbs::BitsForValue(uint64_t(wi.estimate));
    }
  }
  return bits;
}

BernHhh::BernHhh(const Hierarchy& hierarchy, uint64_t universe,
                 uint64_t m_guess, double eps, double delta,
                 wbs::RandomTape* tape)
    : m_guess_(m_guess),
      sampler_(sampling::BernoulliRate(universe, m_guess, eps / 2, delta),
               tape),
      inner_(hierarchy, eps / 2) {}

void BernHhh::Add(uint64_t item) {
  if (sampler_.Offer()) inner_.Add(item);
}

HhhList BernHhh::Query(double gamma) const {
  // Thresholds inside `inner_` are relative to its own (sampled) processed
  // count, so gamma passes through; only the reported estimates rescale.
  HhhList out = inner_.Query(gamma);
  for (auto& e : out) e.estimate *= sampler_.InverseRate();
  return out;
}

RobustHhh::RobustHhh(const Hierarchy& hierarchy, uint64_t universe,
                     double eps, double gamma, double delta_total,
                     wbs::RandomTape* tape)
    : hierarchy_(hierarchy),
      universe_(universe),
      eps_(eps),
      gamma_(gamma),
      delta_total_(delta_total),
      tape_(tape),
      clock_(/*a=*/0.05, tape),
      c_(1),
      active_guess_(GuessFor(c_)) {
  const double d = delta_total_ / 80.0;
  active_ = std::make_unique<BernHhh>(hierarchy_, universe_,
                                      uint64_t(active_guess_), eps_, d, tape_);
  next_ = std::make_unique<BernHhh>(hierarchy_, universe_,
                                    uint64_t(GuessFor(c_ + 1)), eps_, d,
                                    tape_);
}

double RobustHhh::GuessFor(int e) const {
  return std::min(std::pow(16.0 / eps_, double(e)), 9e18);
}

void RobustHhh::Rotate() {
  const double d = delta_total_ / 80.0;
  ++c_;
  active_guess_ = GuessFor(c_);
  active_ = std::move(next_);
  next_ = std::make_unique<BernHhh>(hierarchy_, universe_,
                                    uint64_t(GuessFor(c_ + 1)), eps_, d,
                                    tape_);
}

Status RobustHhh::Update(const stream::ItemUpdate& u) {
  if (u.item >= universe_) {
    return Status::OutOfRange("RobustHhh: item out of universe");
  }
  clock_.Increment();
  active_->Add(u.item);
  next_->Add(u.item);
  if (clock_.Estimate() >= active_guess_) Rotate();
  return Status::OK();
}

HhhList RobustHhh::Query() const { return active_->Query(gamma_); }

void RobustHhh::SerializeState(core::StateWriter* w) const {
  w->PutU64(uint64_t(c_));
  w->PutU64(clock_.register_value());
  for (const BernHhh* inst : {active_.get(), next_.get()}) {
    w->PutU64(inst->m_guess());
    w->PutDouble(inst->p());
    HhhList l = inst->Query(gamma_);
    w->PutU64(l.size());
    for (const auto& e : l) {
      w->PutU64(uint64_t(e.prefix.level));
      w->PutU64(e.prefix.value);
      w->PutDouble(e.estimate);
    }
  }
}

uint64_t RobustHhh::SpaceBits() const {
  return clock_.SpaceBits() + wbs::BitsForValue(uint64_t(c_)) +
         active_->SpaceBits() + next_->SpaceBits();
}

}  // namespace wbs::hhh
