// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "heavyhitters/crhf_hh.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"

namespace wbs::hh {

namespace {

int ChooseHashBits(uint64_t universe, double eps, uint64_t time_budget_t) {
  // Candidates the CRHF must keep collision-free: the O(1/eps) tracked keys
  // plus everything a T-time adversary can try — the birthday rule of
  // Sha256Crhf::OutputBitsForBudget. Never wider than log n (at that point
  // plain identities are cheaper; this realizes the min(log n, log T)).
  int budget_bits = crypto::Sha256Crhf::OutputBitsForBudget(
      time_budget_t, uint64_t(std::ceil(8.0 / eps)));
  int universe_bits = int(wbs::BitsForUniverse(universe));
  return std::max(8, std::min(budget_bits, universe_bits));
}

}  // namespace

CrhfHeavyHitters::CrhfHeavyHitters(uint64_t universe, double phi, double eps,
                                   uint64_t time_budget_t,
                                   wbs::RandomTape* tape)
    : universe_(universe),
      phi_(phi),
      eps_(eps),
      tape_(tape),
      // The CRHF index is drawn from the tape — fully visible to the
      // adversary; collision resistance does not rely on secrecy.
      crhf_(tape->NextWord(), ChooseHashBits(universe, eps, time_budget_t)),
      inner_(uint64_t{1} << ChooseHashBits(universe, eps, time_budget_t),
             eps, /*delta_total=*/0.25, tape),
      identity_capacity_(size_t(std::ceil(2.0 / phi))) {}

Status CrhfHeavyHitters::Update(const stream::ItemUpdate& u) {
  if (u.item >= universe_) {
    return Status::OutOfRange("CrhfHeavyHitters: item out of universe");
  }
  return UpdateHashed(u.item, crhf_.HashU64(u.item));
}

Status CrhfHeavyHitters::UpdateHashed(uint64_t item, uint64_t hashed) {
  if (item >= universe_) {
    return Status::OutOfRange("CrhfHeavyHitters: item out of universe");
  }
  assert(hashed == crhf_.HashU64(item) &&
         "UpdateHashed fed a hash that is not crhf().HashU64(item)");
  Status s = inner_.Update({hashed});
  if (!s.ok()) return s;
  MaybePromote(item, hashed);
  return Status::OK();
}

void CrhfHeavyHitters::MaybePromote(uint64_t item, uint64_t hashed) {
  // Keep full identities only for hashes that could still be phi-heavy.
  auto it = identity_.find(hashed);
  if (it != identity_.end()) return;
  if (identity_.size() < identity_capacity_) {
    identity_.emplace(hashed, item);
    return;
  }
  // Evict the identity with the smallest current estimate if this one is
  // heavier — the phi-heavy hashes always have top-1/phi estimates. Every
  // tracked estimate is >= 0, so a candidate the inner summary does not
  // hold (estimate 0) can never win: skip the scan for it.
  const double est = inner_.Estimate(hashed);
  if (est == 0) return;
  auto min_it = identity_.begin();
  double min_est = inner_.Estimate(min_it->first);
  for (auto it2 = identity_.begin(); it2 != identity_.end(); ++it2) {
    double e = inner_.Estimate(it2->first);
    if (e < min_est) {
      min_est = e;
      min_it = it2;
    }
  }
  if (est > min_est) {
    identity_.erase(min_it);
    identity_.emplace(hashed, item);
  }
}

HhList CrhfHeavyHitters::Query() const {
  // Threshold at (phi - eps/2) * L1-estimate: items >= phi*L1 survive, items
  // <= (phi - eps)*L1 are filtered, realizing Definition of (phi, eps)-HH.
  HhList inner_list = inner_.Query();
  double l1_estimate = 0;
  for (const auto& wi : inner_list) l1_estimate += wi.estimate;
  // The tracked mass underestimates L1; use the exact-sampling scale from
  // the active instance instead: estimates are already stream-scaled, and
  // every phi-heavy item is tracked, so sum(tracked) >= phi-heavy mass.
  // For thresholding we need an L1 proxy: use max(tracked sum, largest/phi).
  if (!inner_list.empty()) {
    l1_estimate = std::max(l1_estimate, inner_list.front().estimate / phi_);
  }
  HhList out;
  const double cutoff = (phi_ - eps_ / 2) * l1_estimate;
  for (const auto& wi : inner_list) {
    if (wi.estimate < cutoff) continue;
    auto it = identity_.find(wi.item);
    if (it == identity_.end()) continue;  // lost identity => cannot report
    out.push_back({it->second, wi.estimate});
  }
  return out;
}

void CrhfHeavyHitters::SerializeState(core::StateWriter* w) const {
  w->PutU64(crhf_.salt());
  w->PutU64(uint64_t(crhf_.output_bits()));
  inner_.SerializeState(w);
  w->PutU64(identity_.size());
  for (const auto& [h, id] : identity_) {
    w->PutU64(h);
    w->PutU64(id);
  }
}

uint64_t CrhfHeavyHitters::SpaceBits() const {
  // Inner summary over the hashed universe + identity table + CRHF index.
  uint64_t bits = inner_.SpaceBits();
  bits += identity_.size() *
          (uint64_t(crhf_.output_bits()) + wbs::BitsForUniverse(universe_));
  bits += 64;  // the public CRHF salt
  return bits;
}

}  // namespace wbs::hh
