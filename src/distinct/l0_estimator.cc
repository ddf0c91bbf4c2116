// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "distinct/l0_estimator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/bits.h"
#include "common/modmath.h"

namespace wbs::distinct {

namespace {

/// a * b, or `cap` once the product passes it (never wraps).
uint64_t MulSaturating(uint64_t a, uint64_t b, uint64_t cap) {
  if (b != 0 && a > cap / b) return cap;
  return std::min(a * b, cap);
}

SisL0Params DeriveUncached(uint64_t universe, double eps, double c,
                           uint64_t f_inf_bound) {
  SisL0Params p;
  p.universe = universe;
  p.chunk_width =
      std::max<uint64_t>(1, uint64_t(std::round(std::pow(double(universe), eps))));
  p.num_chunks = (universe + p.chunk_width - 1) / p.chunk_width;
  p.sketch_rows = std::max<size_t>(
      1, size_t(std::round(std::pow(double(universe), c * eps))));
  // q = poly(n), comfortably above beta_inf * chunk_width so honest chunks
  // cannot wrap to zero by magnitude alone. Both products saturate at the
  // cap: wrapped, n^3 reads 0 from n = 2^22 on.
  constexpr uint64_t kCap = SisL0Params::kMaxModulusTarget;
  const uint64_t base = universe < 16 ? 16 : universe;
  const uint64_t cube =
      MulSaturating(MulSaturating(base, base, kCap), base, kCap);
  const uint64_t honest =
      MulSaturating(MulSaturating(f_inf_bound, p.chunk_width, kCap), 4, kCap);
  p.q = NextPrime(std::max(cube, honest));
  p.beta_inf = f_inf_bound;
  return p;
}

// Distinct configs a process keeps derived parameters for; past this many,
// Derive computes without caching, so hostile configs cannot grow memory.
constexpr size_t kMaxMemoizedConfigs = 64;

}  // namespace

SisL0Params SisL0Params::Derive(uint64_t universe, double eps, double c,
                                uint64_t f_inf_bound) {
  assert(eps > 0 && eps < 1);
  assert(c > 0 && c < 0.5);
  // NextPrime near 2^60 is most of a fresh instance's cost, and every
  // snapshot clone, merge target and deserialized state is a fresh instance
  // of one of a few configs, so each config is derived once per process.
  // The key holds the doubles' bits: equal bits derive equal parameters.
  using Key = std::array<uint64_t, 4>;
  static std::mutex mu;
  static auto* memo = new std::map<Key, SisL0Params>();
  const Key key{universe, std::bit_cast<uint64_t>(eps),
                std::bit_cast<uint64_t>(c), f_inf_bound};
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(key);
    if (it != memo->end()) return it->second;
  }
  const SisL0Params p = DeriveUncached(universe, eps, c, f_inf_bound);
  std::lock_guard<std::mutex> lock(mu);
  if (memo->size() < kMaxMemoizedConfigs) memo->emplace(key, p);
  return p;
}

SisL0Estimator::SisL0Estimator(const SisL0Params& params,
                               const crypto::RandomOracle& oracle,
                               uint64_t oracle_domain)
    : params_(params),
      matrix_(crypto::SisParams{params.q, params.sketch_rows,
                                size_t(params.chunk_width), params.beta_inf},
              oracle, oracle_domain),
      state_(size_t(params.num_chunks) * params.sketch_rows, 0) {
  // All chunks share the same oracle-derived A (the paper: "we use the same
  // sketching matrix A on each chunk").
}

Status SisL0Estimator::Update(const stream::TurnstileUpdate& u) {
  if (u.item >= params_.universe) {
    return Status::OutOfRange("SisL0Estimator: item out of universe");
  }
  const uint64_t chunk = u.item / params_.chunk_width;
  const size_t col = size_t(u.item % params_.chunk_width);
  return matrix_.AddColumn(state_.data() + size_t(chunk) * params_.sketch_rows,
                           col, u.delta);
}

namespace {

bool SameShape(const SisL0Params& a, const SisL0Params& b) {
  return a.universe == b.universe && a.chunk_width == b.chunk_width &&
         a.num_chunks == b.num_chunks && a.sketch_rows == b.sketch_rows &&
         a.q == b.q;
}

}  // namespace

Status SisL0Estimator::CheckMergeable(const SisL0Estimator& other,
                                      const char* op) const {
  if (!SameShape(params_, other.params_)) {
    return Status::FailedPrecondition(std::string("SisL0Estimator::") + op +
                                      ": parameter mismatch");
  }
  if (!matrix_.SameMatrix(other.matrix_)) {
    return Status::FailedPrecondition(std::string("SisL0Estimator::") + op +
                                      ": oracle instance or domain mismatch");
  }
  return Status::OK();
}

Status SisL0Estimator::MergeFrom(const SisL0Estimator& other) {
  if (Status s = CheckMergeable(other, "MergeFrom"); !s.ok()) return s;
  AccumulateMod(state_.data(), other.state_.data(), state_.size(), params_.q);
  return Status::OK();
}

Status SisL0Estimator::UnmergeFrom(const SisL0Estimator& other) {
  if (Status s = CheckMergeable(other, "UnmergeFrom"); !s.ok()) return s;
  SubtractMod(state_.data(), other.state_.data(), state_.size(), params_.q);
  return Status::OK();
}

Status SisL0Estimator::RestoreState(const void* words, size_t n) {
  if (n != state_.size()) {
    return Status::InvalidArgument(
        "SisL0Estimator::RestoreState: state size mismatch");
  }
  // Branch-free, so the check vectorizes: with q <= 2^63, x >= q exactly
  // when x or q - 1 - x has its top bit set.
  assert(params_.q - 1 < (uint64_t{1} << 63));
  const auto* bytes = static_cast<const char*>(words);
  uint64_t high = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    CopyLittleEndian<uint64_t>(&x, bytes + 8 * i, 1);
    high |= x | (params_.q - 1 - x);
  }
  if ((high >> 63) != 0) {
    return Status::InvalidArgument(
        "SisL0Estimator::RestoreState: residue not reduced mod q");
  }
  CopyLittleEndian<uint64_t>(state_.data(), words, n);
  return Status::OK();
}

double SisL0Estimator::Query() const {
  uint64_t nonzero = 0;
  const size_t rows = params_.sketch_rows;
  for (size_t base = 0; base < state_.size(); base += rows) {
    for (size_t i = 0; i < rows; ++i) {
      if (state_[base + i] != 0) {
        ++nonzero;
        break;
      }
    }
  }
  return double(nonzero);
}

void SisL0Estimator::SerializeState(core::StateWriter* w) const {
  w->PutU64(params_.num_chunks);
  w->PutU64(params_.chunk_width);
  w->PutU64(params_.q);
  for (uint64_t v : state_) w->PutU64(v);
}

uint64_t SisL0Estimator::SpaceBits() const {
  return matrix_.params().EntryBits() * state_.size();
}

NaiveSumL0::NaiveSumL0(uint64_t universe, uint64_t chunk_width)
    : universe_(universe),
      chunk_width_(chunk_width),
      sums_((universe + chunk_width - 1) / chunk_width, 0) {}

Status NaiveSumL0::Update(const stream::TurnstileUpdate& u) {
  if (u.item >= universe_) {
    return Status::OutOfRange("NaiveSumL0: item out of universe");
  }
  sums_[size_t(u.item / chunk_width_)] += u.delta;
  return Status::OK();
}

double NaiveSumL0::Query() const {
  uint64_t nonzero = 0;
  for (int64_t s : sums_) {
    if (s != 0) ++nonzero;
  }
  return double(nonzero);
}

void NaiveSumL0::SerializeState(core::StateWriter* w) const {
  w->PutU64(sums_.size());
  for (int64_t s : sums_) w->PutI64(s);
}

uint64_t NaiveSumL0::SpaceBits() const {
  uint64_t bits = 0;
  for (int64_t s : sums_) {
    bits += wbs::BitsForValue(uint64_t(s < 0 ? -s : s)) + 1;  // sign bit
  }
  return bits;
}

KmvDistinct::KmvDistinct(size_t k, wbs::RandomTape* tape)
    : k_(k), tape_(tape), hash_seed_(tape->NextWord()) {}

uint64_t KmvDistinct::HashItem(uint64_t item) const {
  uint64_t s = hash_seed_ ^ (item * 0x9e3779b97f4a7c15ULL);
  return wbs::SplitMix64(&s);
}

uint64_t KmvDistinct::Threshold() const {
  if (smallest_.size() < k_) return ~uint64_t{0};
  return *smallest_.rbegin();
}

Status KmvDistinct::Update(const stream::ItemUpdate& u) {
  uint64_t h = HashItem(u.item);
  if (smallest_.size() < k_) {
    smallest_.insert(h);
    return Status::OK();
  }
  auto last = std::prev(smallest_.end());
  if (h < *last && smallest_.find(h) == smallest_.end()) {
    smallest_.erase(last);
    smallest_.insert(h);
  }
  return Status::OK();
}

double KmvDistinct::Query() const {
  if (smallest_.size() < k_) return double(smallest_.size());
  // Standard KMV estimate: (k - 1) / normalized k-th minimum.
  double kth = double(*smallest_.rbegin()) / double(~uint64_t{0});
  if (kth <= 0) return double(k_);
  return (double(k_) - 1.0) / kth;
}

void KmvDistinct::SerializeState(core::StateWriter* w) const {
  w->PutU64(hash_seed_);  // the adversary sees the hash function
  w->PutU64(smallest_.size());
  for (uint64_t h : smallest_) w->PutU64(h);
}

uint64_t KmvDistinct::SpaceBits() const {
  return 64 + smallest_.size() * 64;
}

std::optional<stream::ItemUpdate> KmvBlindingAdversary::NextUpdate(
    const core::StateView&, const double&) {
  // White-box attack: the adversary recomputes the victim's hash (seed is in
  // the exposed state; we read it through the victim pointer, which is
  // equivalent) and emits the next fresh item hashing above the current
  // threshold — the sketch never changes while true L0 grows.
  const uint64_t threshold = victim_->Threshold();
  while (next_probe_ < universe_) {
    uint64_t item = next_probe_++;
    if (victim_->HashItem(item) > threshold) {
      return stream::ItemUpdate{item};
    }
  }
  return std::nullopt;
}

}  // namespace wbs::distinct
