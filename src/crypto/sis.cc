// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "crypto/sis.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/bits.h"
#include "common/modmath.h"
#include "common/simd.h"

namespace wbs::crypto {

uint64_t SisParams::EntryBits() const { return wbs::BitsForUniverse(q); }

uint64_t SisParams::MatrixBits() const {
  return EntryBits() * rows * cols;
}

SisMatrix::SisMatrix(SisParams params, const RandomOracle& oracle,
                     uint64_t domain)
    : params_(params), oracle_(&oracle), domain_(domain), barrett_(params.q) {
  assert(params_.q >= 2);
  assert(params_.rows > 0 && params_.cols > 0);
}

uint64_t SisMatrix::Entry(size_t i, size_t j) const {
  assert(i < params_.rows && j < params_.cols);
  if (!cache_.empty()) return cache_[j * params_.rows + i];
  return oracle_->FieldElement(domain_, i * params_.cols + j, params_.q);
}

void SisMatrix::Materialize() {
  if (!cache_.empty()) return;
  const size_t rows = params_.rows;
  const size_t cols = params_.cols;
  cache_.resize(rows * cols);
  // One pass per row with the oracle index base hoisted out of the inner
  // loop; entries land in the column-major layout Column() serves. The
  // oracle values are identical to the on-demand Entry() path — only the
  // storage order changes.
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t base = uint64_t(i) * cols;
    uint64_t* row_dest = cache_.data() + i;
    for (size_t j = 0; j < cols; ++j) {
      row_dest[j * rows] = oracle_->FieldElement(domain_, base + j, params_.q);
    }
  }
  // Shoup companions: shoup[idx] = floor(entry * 2^64 / q). One u128
  // division per entry, paid once at materialization; the SIMD column
  // update kernel then gets exact mod-q products from two multiplies.
  shoup_.resize(cache_.size());
  for (size_t idx = 0; idx < cache_.size(); ++idx) {
    shoup_[idx] = uint64_t((wbs::u128(cache_[idx]) << 64) / params_.q);
  }
}

Status SisMatrix::AddColumn(uint64_t* v, size_t col, int64_t delta) const {
  if (col >= params_.cols) {
    return Status::OutOfRange("SisMatrix::AddColumn: column out of range");
  }
  const size_t rows = params_.rows;
  const uint64_t d = ReduceSigned(delta, params_.q);
  if (d == 0) return Status::OK();
  if (materialized()) {
    // Hot path: contiguous column of the materialized A through the
    // runtime-dispatched SIMD kernel (Shoup products on vector lanes, or
    // the scalar Barrett loop on the fallback table). Same canonical
    // residues as the generic AddMod/MulMod path below, entry for entry.
    const uint64_t* column = Column(col);
#ifndef NDEBUG
    // Paranoia half of the bit-identity contract: replay the update on a
    // copy with the scalar Barrett path and require an exact match.
    std::vector<uint64_t> want(v, v + rows);
    for (size_t i = 0; i < rows; ++i) {
      want[i] = barrett_.AddMod(want[i], barrett_.MulMod(d, column[i]));
    }
#endif
    simd::Kernels().sis_column_update(v, column, ShoupColumn(col), rows, d,
                                      barrett_);
    assert(std::equal(want.begin(), want.end(), v) &&
           "SIMD SIS column update diverged from scalar");
  } else {
    for (size_t i = 0; i < rows; ++i) {
      v[i] = barrett_.AddMod(v[i], barrett_.MulMod(d, Entry(i, col)));
    }
  }
  return Status::OK();
}

SisSketchVector::SisSketchVector(const SisMatrix* matrix)
    : matrix_(matrix), v_(matrix->params().rows, 0) {}

Status SisSketchVector::Update(size_t col, int64_t delta) {
  return matrix_->AddColumn(v_.data(), col, delta);
}

Status SisSketchVector::MergeFrom(const SisSketchVector& other) {
  const SisParams& p = matrix_->params();
  const SisParams& op = other.matrix_->params();
  if (p.q != op.q || p.rows != op.rows || p.cols != op.cols ||
      v_.size() != other.v_.size()) {
    return Status::FailedPrecondition(
        "SisSketchVector::MergeFrom: parameter mismatch");
  }
  AccumulateMod(v_.data(), other.v_.data(), v_.size(), p.q);
  return Status::OK();
}

Status SisSketchVector::UnmergeFrom(const SisSketchVector& other) {
  const SisParams& p = matrix_->params();
  const SisParams& op = other.matrix_->params();
  if (p.q != op.q || p.rows != op.rows || p.cols != op.cols ||
      v_.size() != other.v_.size()) {
    return Status::FailedPrecondition(
        "SisSketchVector::UnmergeFrom: parameter mismatch");
  }
  SubtractMod(v_.data(), other.v_.data(), v_.size(), p.q);
  return Status::OK();
}

bool SisSketchVector::IsZero() const {
  for (uint64_t x : v_) {
    if (x != 0) return false;
  }
  return true;
}

uint64_t SisSketchVector::SpaceBits() const {
  return matrix_->params().EntryBits() * v_.size();
}

bool IsValidSisSolution(const SisMatrix& matrix,
                        const std::vector<int64_t>& z) {
  const SisParams& p = matrix.params();
  if (z.size() != p.cols) return false;
  bool nonzero = false;
  for (int64_t zi : z) {
    if (zi != 0) nonzero = true;
    if (zi > int64_t(p.beta_inf) || zi < -int64_t(p.beta_inf)) return false;
  }
  if (!nonzero) return false;
  const BarrettQ& bq = matrix.barrett();
  for (size_t i = 0; i < p.rows; ++i) {
    uint64_t acc = 0;
    for (size_t j = 0; j < p.cols; ++j) {
      acc = bq.AddMod(acc,
                      bq.MulMod(ReduceSigned(z[j], p.q), matrix.Entry(i, j)));
    }
    if (acc != 0) return false;
  }
  return true;
}

namespace {

// Advances z through the box {-B..B}^k in odometer order; returns false after
// the last combination.
bool NextCandidate(std::vector<int64_t>* z, int64_t b) {
  for (size_t i = 0; i < z->size(); ++i) {
    if ((*z)[i] < b) {
      ++(*z)[i];
      return true;
    }
    (*z)[i] = -b;
  }
  return false;
}

}  // namespace

SisAttackResult BruteForceSisAttack(const SisMatrix& matrix,
                                    uint64_t max_operations) {
  const SisParams& p = matrix.params();
  const int64_t b = int64_t(p.beta_inf);
  SisAttackResult result;
  std::vector<int64_t> z(p.cols, -b);
  do {
    ++result.operations_used;
    if (result.operations_used > max_operations) {
      result.budget_exhausted = true;
      return result;
    }
    bool all_zero = true;
    for (int64_t zi : z) {
      if (zi != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    if (IsValidSisSolution(matrix, z)) {
      result.found = true;
      result.z = z;
      return result;
    }
  } while (NextCandidate(&z, b));
  return result;
}

SisAttackResult MeetInMiddleSisAttack(const SisMatrix& matrix,
                                      uint64_t max_operations) {
  const SisParams& p = matrix.params();
  const int64_t b = int64_t(p.beta_inf);
  SisAttackResult result;
  const size_t left_cols = p.cols / 2;
  const size_t right_cols = p.cols - left_cols;
  if (left_cols == 0) return BruteForceSisAttack(matrix, max_operations);

  // Key a partial sum vector by hashing its entries into one 64-bit word;
  // collisions are re-verified exactly, so false positives are harmless.
  auto key_of = [&](const std::vector<uint64_t>& v) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t x : v) {
      h ^= x;
      h *= 0x100000001b3ULL;
    }
    return h;
  };

  // Enumerate left half: A_left * z_left.
  std::unordered_multimap<uint64_t, std::vector<int64_t>> table;
  std::vector<int64_t> zl(left_cols, -b);
  const BarrettQ& bq = matrix.barrett();
  auto partial = [&](const std::vector<int64_t>& z, size_t col0,
                     size_t ncols) {
    std::vector<uint64_t> v(p.rows, 0);
    for (size_t j = 0; j < ncols; ++j) {
      const uint64_t zj = ReduceSigned(z[j], p.q);
      for (size_t i = 0; i < p.rows; ++i) {
        v[i] = bq.AddMod(v[i], bq.MulMod(zj, matrix.Entry(i, col0 + j)));
      }
    }
    return v;
  };
  do {
    ++result.operations_used;
    if (result.operations_used > max_operations) {
      result.budget_exhausted = true;
      return result;
    }
    table.emplace(key_of(partial(zl, 0, left_cols)), zl);
  } while (NextCandidate(&zl, b));

  // Enumerate right half and look up -A_right * z_right.
  std::vector<int64_t> zr(right_cols, -b);
  do {
    ++result.operations_used;
    if (result.operations_used > max_operations) {
      result.budget_exhausted = true;
      return result;
    }
    std::vector<uint64_t> v = partial(zr, left_cols, right_cols);
    for (auto& x : v) x = x == 0 ? 0 : p.q - x;  // negate mod q
    auto range = table.equal_range(key_of(v));
    for (auto it = range.first; it != range.second; ++it) {
      std::vector<int64_t> z = it->second;
      z.insert(z.end(), zr.begin(), zr.end());
      if (IsValidSisSolution(matrix, z)) {
        result.found = true;
        result.z = std::move(z);
        return result;
      }
    }
  } while (NextCandidate(&zr, b));
  return result;
}

}  // namespace wbs::crypto
