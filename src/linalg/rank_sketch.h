// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Theorem 1.6: the streaming rank decision problem (Problem 2.22) against
// computationally bounded white-box adversaries, in the random oracle model.
//
// The algorithm draws H in Z_q^{k x n} from the public random oracle (zero
// bits of storage) and maintains the sketch S = H * A mod q across turnstile
// entry updates to A, using ~O(n k^2) bits (q is chosen so log q = ~O(k)).
// After the stream:   rank(A) >= k  is declared iff  rank_q(S) == k.
//
//  * If rank(A) < k then every column of S = H A lies in the image of an
//    (<k)-dimensional space, so rank(S) < k: the "rank < k" answer is
//    always correct.
//  * If rank(A) >= k but rank(S) < k, a kernel combination yields an integer
//    vector y = A x != 0 with H y = 0 mod q and entries poly(n)^k — i.e. the
//    adversary has produced a short(ish) SIS solution for H, contradicting
//    Assumption 2.17 for a computationally bounded adversary.
//
// The paper enumerates small x with H A x = 0 mod q; checking
// rank_q(S) < k is the equivalent decision (such x exists iff S is column
// rank deficient) and is what an implementation would run.

#ifndef WBS_LINALG_RANK_SKETCH_H_
#define WBS_LINALG_RANK_SKETCH_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "core/game.h"
#include "crypto/random_oracle.h"
#include "linalg/matrix_zq.h"

namespace wbs::linalg {

/// Turnstile update to one entry of the streamed matrix A.
struct EntryUpdate {
  size_t row = 0;
  size_t col = 0;
  int64_t delta = 0;
};

/// Streaming rank-decision sketch (Theorem 1.6).
class RankDecisionSketch final : public core::StreamAlg<EntryUpdate, bool> {
 public:
  /// Decides "rank(A) >= k" for an n x n matrix A. `oracle_domain` selects
  /// the public randomness; q should be a prime >= n^Theta(k) in theory —
  /// callers pass a 61-bit prime (the scale-down documented in DESIGN.md).
  RankDecisionSketch(size_t n, size_t k, uint64_t q,
                     const crypto::RandomOracle& oracle,
                     uint64_t oracle_domain);

  Status Update(const EntryUpdate& u) override;

  /// True iff rank(A) >= k (under the SIS assumption).
  bool Query() const override;

  void SerializeState(core::StateWriter* w) const override;

  /// Only the k x n sketch is charged: H comes from the public oracle.
  uint64_t SpaceBits() const override { return sketch_.SpaceBits(); }

  /// Linear merge: S += other.S (mod q). Valid only when both sketches use
  /// the same H (same n, k, q, oracle instance and domain); then S_merged =
  /// H * (A1 + A2), the sketch of the entry-wise summed stream.
  Status MergeFrom(const RankDecisionSketch& other);

  /// Exact inverse of MergeFrom: S -= other.S (mod q). Same H requirement.
  Status UnmergeFrom(const RankDecisionSketch& other);

  /// Entry H[i][j] (derived from the oracle; exposed for tests/attacks —
  /// the white-box adversary can compute these itself anyway).
  uint64_t HEntry(size_t i, size_t j) const;

  size_t n() const { return n_; }
  size_t k() const { return k_; }
  const crypto::RandomOracle& oracle() const { return oracle_; }
  const MatrixZq& sketch() const { return sketch_; }

  /// Restores S from `entries` (row-major, k*n values) previously read off
  /// sketch().data(); validates the length and the mod-q range. The H
  /// matrix is public oracle randomness and is unaffected.
  Status RestoreSketch(const std::vector<uint64_t>& entries);

 private:
  size_t n_;
  size_t k_;
  crypto::RandomOracle oracle_;  // one word: copies never outlive a source
  uint64_t domain_;
  wbs::BarrettQ barrett_;  // per-q constants for the update hot loop
  MatrixZq sketch_;        // S = H * A, k x n
};

/// Corollary of Theorem 1.6: maintain a maximal linearly independent set of
/// rows in a row-arrival stream, storing only column-compressed rows.
/// Each arriving row r is compressed to r * G with G in Z_q^{n x d} from the
/// oracle (d ~ 2k); the row is retained iff its compression is independent
/// of the retained compressions. Under SIS-style hardness a bounded
/// adversary cannot manufacture a dependent row that looks independent (or
/// vice versa) in the compressed space.
class StreamingBasisTracker {
 public:
  StreamingBasisTracker(size_t n, size_t max_rank, uint64_t q,
                        const crypto::RandomOracle& oracle,
                        uint64_t oracle_domain);

  /// Offers a full row; returns true iff the row was retained (independent).
  bool OfferRow(const std::vector<int64_t>& row);

  /// Indices (arrival order) of retained rows.
  const std::vector<size_t>& basis_indices() const { return kept_; }
  size_t rank() const { return kept_.size(); }

  uint64_t SpaceBits() const;

 private:
  size_t n_;
  size_t d_;  // compressed width
  uint64_t q_;
  crypto::RandomOracle oracle_;
  uint64_t domain_;
  size_t offered_ = 0;
  std::vector<size_t> kept_;
  // Compressed retained rows in reduced echelon form + pivot columns.
  std::vector<std::vector<uint64_t>> echelon_;
  std::vector<size_t> pivot_cols_;
};

}  // namespace wbs::linalg

#endif  // WBS_LINALG_RANK_SKETCH_H_
