// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "linalg/rank_sketch.h"

#include <algorithm>
#include <cassert>

namespace wbs::linalg {

RankDecisionSketch::RankDecisionSketch(size_t n, size_t k, uint64_t q,
                                       const crypto::RandomOracle& oracle,
                                       uint64_t oracle_domain)
    : n_(n), k_(k), oracle_(oracle), domain_(oracle_domain), barrett_(q),
      sketch_(k, n, q) {
  assert(k >= 1 && k <= n);
}

uint64_t RankDecisionSketch::HEntry(size_t i, size_t j) const {
  return oracle_.FieldElement(domain_, i * n_ + j, sketch_.q());
}

Status RankDecisionSketch::Update(const EntryUpdate& u) {
  if (u.row >= n_ || u.col >= n_) {
    return Status::OutOfRange("RankDecisionSketch: index out of range");
  }
  // A[row][col] += delta  =>  S[:, col] += delta * H[:, row]. The modular
  // delta and the Barrett constants are loop-invariant; the oracle call per
  // H entry dominates what remains.
  const uint64_t d = ReduceSigned(u.delta, sketch_.q());
  for (size_t i = 0; i < k_; ++i) {
    uint64_t h = HEntry(i, u.row);
    sketch_.At(i, u.col) =
        barrett_.AddMod(sketch_.At(i, u.col), barrett_.MulMod(h, d));
  }
  return Status::OK();
}

Status RankDecisionSketch::MergeFrom(const RankDecisionSketch& other) {
  if (n_ != other.n_ || k_ != other.k_ || sketch_.q() != other.sketch_.q() ||
      oracle_.instance_id() != other.oracle_.instance_id() ||
      domain_ != other.domain_) {
    return Status::FailedPrecondition(
        "RankDecisionSketch::MergeFrom: sketches do not share H");
  }
  AccumulateMod(sketch_.data(), other.sketch_.data(), sketch_.size(),
                sketch_.q());
  return Status::OK();
}

Status RankDecisionSketch::UnmergeFrom(const RankDecisionSketch& other) {
  if (n_ != other.n_ || k_ != other.k_ || sketch_.q() != other.sketch_.q() ||
      oracle_.instance_id() != other.oracle_.instance_id() ||
      domain_ != other.domain_) {
    return Status::FailedPrecondition(
        "RankDecisionSketch::UnmergeFrom: sketches do not share H");
  }
  SubtractMod(sketch_.data(), other.sketch_.data(), sketch_.size(),
              sketch_.q());
  return Status::OK();
}

Status RankDecisionSketch::RestoreSketch(
    const std::vector<uint64_t>& entries) {
  if (entries.size() != sketch_.size()) {
    return Status::InvalidArgument(
        "RankDecisionSketch::RestoreSketch: dimension mismatch");
  }
  const uint64_t q = sketch_.q();
  for (uint64_t v : entries) {
    if (v >= q) {
      return Status::InvalidArgument(
          "RankDecisionSketch::RestoreSketch: entry not reduced mod q");
    }
  }
  std::copy(entries.begin(), entries.end(), sketch_.data());
  return Status::OK();
}

bool RankDecisionSketch::Query() const { return sketch_.Rank() == k_; }

void RankDecisionSketch::SerializeState(core::StateWriter* w) const {
  w->PutU64(n_);
  w->PutU64(k_);
  w->PutU64(sketch_.q());
  for (size_t i = 0; i < k_; ++i) {
    for (size_t j = 0; j < n_; ++j) w->PutU64(sketch_.At(i, j));
  }
}

StreamingBasisTracker::StreamingBasisTracker(size_t n, size_t max_rank,
                                             uint64_t q,
                                             const crypto::RandomOracle& oracle,
                                             uint64_t oracle_domain)
    : n_(n), d_(2 * max_rank + 2), q_(q), oracle_(oracle),
      domain_(oracle_domain) {
  if (d_ > n_) d_ = n_;
}

bool StreamingBasisTracker::OfferRow(const std::vector<int64_t>& row) {
  assert(row.size() == n_);
  const size_t index = offered_++;
  // Compress: c = row * G, G[j][t] = oracle(domain, j*d + t).
  std::vector<uint64_t> c(d_, 0);
  for (size_t j = 0; j < n_; ++j) {
    if (row[j] == 0) continue;
    uint64_t rj = row[j] >= 0 ? uint64_t(row[j]) % q_
                              : q_ - (uint64_t(-row[j]) % q_);
    if (rj == q_) rj = 0;
    for (size_t t = 0; t < d_; ++t) {
      uint64_t g = oracle_.FieldElement(domain_, j * d_ + t, q_);
      c[t] = AddMod(c[t], MulMod(rj, g, q_), q_);
    }
  }
  // Reduce c against the retained echelon basis.
  for (size_t r = 0; r < echelon_.size(); ++r) {
    uint64_t f = c[pivot_cols_[r]];
    if (f == 0) continue;
    for (size_t t = 0; t < d_; ++t) {
      c[t] = SubMod(c[t], MulMod(f, echelon_[r][t], q_), q_);
    }
  }
  // Find a pivot; if none, the row is (compressed-)dependent.
  size_t pivot = d_;
  for (size_t t = 0; t < d_; ++t) {
    if (c[t] != 0) {
      pivot = t;
      break;
    }
  }
  if (pivot == d_) return false;
  uint64_t inv = InvMod(c[pivot], q_);
  for (size_t t = 0; t < d_; ++t) c[t] = MulMod(c[t], inv, q_);
  // Back-reduce existing rows to keep the basis reduced.
  for (size_t r = 0; r < echelon_.size(); ++r) {
    uint64_t f = echelon_[r][pivot];
    if (f == 0) continue;
    for (size_t t = 0; t < d_; ++t) {
      echelon_[r][t] = SubMod(echelon_[r][t], MulMod(f, c[t], q_), q_);
    }
  }
  echelon_.push_back(std::move(c));
  pivot_cols_.push_back(pivot);
  kept_.push_back(index);
  return true;
}

uint64_t StreamingBasisTracker::SpaceBits() const {
  // Retained compressed rows + their stream indices.
  uint64_t bits = 0;
  for (size_t r = 0; r < echelon_.size(); ++r) {
    bits += d_ * wbs::BitsForUniverse(q_);
    bits += wbs::BitsForValue(kept_[r]);
  }
  return bits;
}

}  // namespace wbs::linalg
