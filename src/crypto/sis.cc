// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "crypto/sis.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <mutex>
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
    : params_(params), oracle_(oracle), domain_(domain), barrett_(params.q) {
  assert(params_.q >= 2);
  assert(params_.rows > 0 && params_.cols > 0);
}

uint64_t SisMatrix::Entry(size_t i, size_t j) const {
  assert(i < params_.rows && j < params_.cols);
  if (entries_ != nullptr) return entries_[j * params_.rows + i];
  return oracle_.FieldElement(domain_, i * params_.cols + j, params_.q);
}

bool SisMatrix::SameMatrix(const SisMatrix& other) const {
  return oracle_.instance_id() == other.oracle_.instance_id() &&
         domain_ == other.domain_ && params_.q == other.params_.q &&
         params_.rows == other.params_.rows &&
         params_.cols == other.params_.cols;
}

namespace {

using TableKey = std::array<uint64_t, 5>;  // instance, domain, q, rows, cols

std::shared_ptr<const SisMatrix::Table> BuildTable(const SisParams& p,
                                                   const RandomOracle& oracle,
                                                   uint64_t domain) {
  auto table = std::make_shared<SisMatrix::Table>();
  const size_t rows = p.rows;
  const size_t cols = p.cols;
  std::vector<uint64_t>& entries = table->entries;
  entries.resize(rows * cols);
  // One pass per row with the oracle index base hoisted out of the inner
  // loop; entries land in the column-major layout Column() serves. The
  // oracle values are identical to the on-demand Entry() path — only the
  // storage order changes.
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t base = uint64_t(i) * cols;
    uint64_t* row_dest = entries.data() + i;
    for (size_t j = 0; j < cols; ++j) {
      row_dest[j * rows] = oracle.FieldElement(domain, base + j, p.q);
    }
  }
  // Shoup companions: shoup[idx] = floor(entry * 2^64 / q). One u128
  // division per entry, paid once per table; the SIMD column update
  // kernel then gets exact mod-q products from two multiplies.
  table->shoup.resize(entries.size());
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    table->shoup[idx] = uint64_t((wbs::u128(entries[idx]) << 64) / p.q);
  }
  return table;
}

}  // namespace

void SisMatrix::Materialize() {
  if (table_ != nullptr) return;
  // Weak references only: the registry never keeps a table alive, and a
  // key whose table died is pruned the next time any matrix materializes.
  static std::mutex mu;
  static auto* tables = new std::map<TableKey, std::weak_ptr<const Table>>();
  const TableKey key{oracle_.instance_id(), domain_, params_.q, params_.rows,
                     params_.cols};
  {
    std::lock_guard<std::mutex> lock(mu);
    std::erase_if(*tables, [](const auto& kv) { return kv.second.expired(); });
    std::weak_ptr<const Table>& slot = (*tables)[key];
    table_ = slot.lock();
    if (table_ == nullptr) {
      // Built under the lock, so matrices of the same key that arrive
      // meanwhile wait and adopt this table rather than build their own.
      table_ = BuildTable(params_, oracle_, domain_);
      slot = table_;
    }
  }
  entries_ = table_->entries.data();
  shoup_ = table_->shoup.data();
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
