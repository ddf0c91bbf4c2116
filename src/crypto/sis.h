// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The Short Integer Solution (SIS) toolkit (Definition 2.15 of the paper).
//
// A uniformly random matrix A in Z_q^{rows x cols} is hard to find a short
// nonzero integer kernel vector for (Ajtai'96, Micciancio-Peikert'13 —
// Theorem 2.16). The streaming algorithms of the paper (Algorithm 5 for L0,
// Theorem 1.6 for rank decision) maintain A*f for the underlying frequency
// vector f; a white-box adversary who wants to fool the sketch must stream a
// nonzero f with A*f = 0 and small entries, i.e. solve SIS.
//
// In the random-oracle model the columns of A are generated on demand from
// the oracle, so the sketch pays no space for A (this is the "~O(n^{1-eps+c
// eps}) in the random oracle model" clause of Theorem 1.5).
//
// The *bounded adversary* (Assumption 2.17 scaled down) is implemented here
// as exhaustive and meet-in-the-middle short-vector searches with an explicit
// operation budget; experiments show it succeeds at toy dimensions and times
// out as dimensions grow.

#ifndef WBS_CRYPTO_SIS_H_
#define WBS_CRYPTO_SIS_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/modmath.h"
#include "common/status.h"
#include "crypto/random_oracle.h"

namespace wbs::crypto {

/// Public parameters of a SIS instance.
struct SisParams {
  uint64_t q = 0;         ///< modulus (prime in this library, q = poly(n))
  size_t rows = 0;        ///< sketch dimension (paper: n^{c*eps})
  size_t cols = 0;        ///< input dimension  (paper: chunk width n^{eps})
  uint64_t beta_inf = 0;  ///< infinity-norm bound on admissible solutions

  /// Bits to store one Z_q entry.
  uint64_t EntryBits() const;
  /// Bits to store the full matrix explicitly (no random oracle).
  uint64_t MatrixBits() const;
};

/// A uniformly random A in Z_q^{rows x cols} whose entries are derived from
/// a public random oracle; optionally materialized for throughput.
///
/// A matrix holds its oracle by value and its materialized table through a
/// shared pointer, so a copy never reads memory its original owns.
class SisMatrix {
 public:
  /// The materialized entries of one matrix: the residues column-major, so
  /// the sketch's column update walks contiguous memory, and their Shoup
  /// companions in the same layout. Immutable once built.
  struct Table {
    std::vector<uint64_t> entries;
    std::vector<uint64_t> shoup;
  };

  /// `domain` separates independent matrices drawn from the same oracle.
  SisMatrix(SisParams params, const RandomOracle& oracle, uint64_t domain);

  /// Entry A[i][j] in [0, q).
  uint64_t Entry(size_t i, size_t j) const;

  /// Adopts the materialized table of this matrix (trades the oracle's O(1)
  /// space for speed; corresponds to the non-random-oracle space bound in
  /// Theorem 1.5). A is public, so one table per (oracle instance, domain,
  /// q, rows, cols) serves every matrix in the process that holds it: the
  /// first Materialize of a key builds it under a process-wide lock, later
  /// and concurrent ones adopt it. The registry keeps only weak references,
  /// so the table is freed with its last holder.
  void Materialize();
  bool materialized() const { return entries_ != nullptr; }

  /// The shared table; null until Materialize().
  const std::shared_ptr<const Table>& table() const { return table_; }

  /// Contiguous column j (rows entries). Requires materialized(); the debug
  /// assertion keeps the fast path honest.
  const uint64_t* Column(size_t j) const {
    assert(materialized());
    assert(j < params_.cols);
    return entries_ + j * params_.rows;
  }

  /// Shoup companion of Column(j): shoup[i] = floor(Column(j)[i] * 2^64 / q),
  /// precomputed by Materialize() so the SIMD column-update kernel can form
  /// exact mod-q products with two lane multiplies instead of a 128-bit
  /// Barrett reduction (see common/simd.h). Requires materialized().
  const uint64_t* ShoupColumn(size_t j) const {
    assert(materialized());
    assert(j < params_.cols);
    return shoup_ + j * params_.rows;
  }

  /// Barrett context for this matrix's modulus, shared by every sketch
  /// vector drawn against it.
  const wbs::BarrettQ& barrett() const { return barrett_; }

  /// The SIS column update on `rows` residues at `v`: v += delta * A_col
  /// (mod q), the turnstile update f[col] += delta, so v is the running
  /// sketch A * f. Rejects `col` out of range. Materialized matrices run the
  /// dispatched SIMD kernel (a Debug build replays it with the scalar
  /// Barrett path and asserts an exact match); otherwise the entries come
  /// from the oracle. Sketch vectors over the same A merge by AccumulateMod
  /// and unmerge by SubtractMod (common/modmath.h), since A * f is linear.
  Status AddColumn(uint64_t* v, size_t col, int64_t delta) const;

  const SisParams& params() const { return params_; }
  const RandomOracle& oracle() const { return oracle_; }

  /// True iff `other` draws the same A: same oracle instance, domain, q and
  /// shape. Sketch vectors are mergeable exactly when their matrices are.
  bool SameMatrix(const SisMatrix& other) const;

  /// Space charged to an algorithm storing this matrix: 0 if entries come
  /// from the public oracle, params().MatrixBits() if materialized storage
  /// is charged (callers decide which model they are in).
  uint64_t SpaceBitsIfStored() const { return params_.MatrixBits(); }

 private:
  SisParams params_;
  RandomOracle oracle_;
  uint64_t domain_;
  wbs::BarrettQ barrett_;
  std::shared_ptr<const Table> table_;  // null until Materialize()
  // table_->entries.data() and table_->shoup.data(), hoisted out of the
  // column update.
  const uint64_t* entries_ = nullptr;
  const uint64_t* shoup_ = nullptr;
};

/// Outcome of a bounded adversary's attempt to solve SIS.
struct SisAttackResult {
  bool found = false;            ///< a nonzero short kernel vector was found
  std::vector<int64_t> z;        ///< the solution (size cols) if found
  uint64_t operations_used = 0;  ///< work performed before success/give-up
  bool budget_exhausted = false;
};

/// Exhaustive search over z in {-beta_inf..beta_inf}^cols \ {0} with
/// A z = 0 (mod q), stopping after `max_operations` candidate evaluations.
/// This is the T-time-bounded white-box adversary of Assumption 2.17 in
/// miniature: doubling cols multiplies its work by (2*beta_inf+1)^k.
SisAttackResult BruteForceSisAttack(const SisMatrix& matrix,
                                    uint64_t max_operations);

/// Meet-in-the-middle variant: hashes A * z_left over half the coordinates
/// and looks up matching -A * z_right. Quadratically better than brute force
/// but still exponential in cols; used to show the attack frontier moves only
/// marginally with a smarter bounded adversary.
SisAttackResult MeetInMiddleSisAttack(const SisMatrix& matrix,
                                      uint64_t max_operations);

/// Verifies A z == 0 (mod q), z != 0, and |z|_inf <= beta_inf.
bool IsValidSisSolution(const SisMatrix& matrix,
                        const std::vector<int64_t>& z);

}  // namespace wbs::crypto

#endif  // WBS_CRYPTO_SIS_H_
