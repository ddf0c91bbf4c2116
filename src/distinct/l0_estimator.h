// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// L0 (distinct elements) estimation on turnstile streams in the white-box
// model — Algorithm 5 / Theorem 1.5 — together with two instructive
// baselines that a white-box adversary *breaks*:
//
//  * SisL0Estimator — partitions [n] into n^{1-eps} chunks of n^eps
//    coordinates; each chunk keeps a SIS sketch A * f_chunk in Z_q^{n^{c
//    eps}} with a shared oracle-derived A. The answer is the number of
//    nonzero chunk sketches, an n^eps-multiplicative approximation unless
//    the adversary streams a short SIS kernel vector (Assumption 2.17).
//    Space ~O(n^{1-eps+c*eps}) in the random oracle model.
//
//  * NaiveSumL0 — same chunking but each chunk keeps only sum(f_i): the
//    cheapest linear sketch. A white-box adversary cancels it with one
//    insert/delete pair across two coordinates, driving the estimate to 0
//    while L0 = 2 (the attack every non-cryptographic linear sketch admits).
//
//  * KmvDistinct — the classic k-minimum-values estimator for insertion
//    streams. Its hash function is part of the exposed state, so a white-box
//    adversary simply inserts items whose hashes all exceed the current
//    k-th minimum: the estimate freezes while L0 grows without bound.

#ifndef WBS_DISTINCT_L0_ESTIMATOR_H_
#define WBS_DISTINCT_L0_ESTIMATOR_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/game.h"
#include "crypto/sis.h"
#include "stream/updates.h"

namespace wbs::distinct {

/// Parameters of Algorithm 5 derived from (n, eps, c).
struct SisL0Params {
  uint64_t universe = 0;   ///< n
  uint64_t chunk_width = 0;///< n^eps coordinates per chunk
  uint64_t num_chunks = 0; ///< ceil(n / chunk_width)
  size_t sketch_rows = 0;  ///< n^{c*eps}
  uint64_t q = 0;          ///< prime modulus, poly(n)
  uint64_t beta_inf = 0;   ///< promised bound on ||f||_inf (poly(n))

  /// Cap on the modulus target: q is the first prime at or above
  /// min(max(n^3, 4 * beta_inf * chunk_width), 2^61), both products
  /// saturating at the cap. A config whose 4 * beta_inf * chunk_width
  /// passes it has no q under the cap that keeps honest chunks from
  /// wrapping.
  static constexpr uint64_t kMaxModulusTarget = uint64_t{1} << 61;

  /// Derives parameters per Theorem 1.5. `eps` in (0,1), `c` in (0, 1/2).
  static SisL0Params Derive(uint64_t universe, double eps, double c,
                            uint64_t f_inf_bound);
};

/// Algorithm 5: Estimate-L0(n, m, eps).
class SisL0Estimator final
    : public core::StreamAlg<stream::TurnstileUpdate, double> {
 public:
  SisL0Estimator(const SisL0Params& params, const crypto::RandomOracle& oracle,
                 uint64_t oracle_domain);

  Status Update(const stream::TurnstileUpdate& u) override;

  /// Number of nonzero chunk sketches: L0/n^eps <= answer <= L0 under the
  /// SIS assumption, i.e. an n^eps-multiplicative approximation.
  double Query() const override;

  void SerializeState(core::StateWriter* w) const override;

  /// Random-oracle model: only the chunk sketches are charged.
  uint64_t SpaceBits() const override;

  /// Linear merge: adds the other estimator's chunk sketches (mod q) into
  /// this one, in one pass over the flat state. Rejected unless both
  /// instances have identical params and draw A from the same oracle
  /// instance and domain (then sketch(f) + sketch(g) = sketch(f + g), so
  /// the merged estimator is bit-identical to one that ingested the
  /// concatenated stream).
  Status MergeFrom(const SisL0Estimator& other);

  /// Exact inverse of MergeFrom (mod-q subtraction of the whole state); same
  /// parameter/oracle requirements. Backs the engine's incremental merge
  /// cache: a stale shard contribution is subtracted, the fresh one added.
  Status UnmergeFrom(const SisL0Estimator& other);

  /// Adopts the materialized sketching matrix A (trades the random-oracle
  /// space accounting for per-update speed; used by the serving engine).
  /// Every estimator of one config shares one table; see
  /// SisMatrix::Materialize.
  void MaterializeMatrix() { matrix_.Materialize(); }

  const SisL0Params& params() const { return params_; }
  const crypto::SisMatrix& matrix() const { return matrix_; }

  /// The estimator's entire mutable state: every chunk's sketch vector
  /// A * f_chunk, chunk-major, `sketch_rows` residues per chunk.
  const std::vector<uint64_t>& state() const { return state_; }

  /// Replaces the whole state with `n` words of a previously captured
  /// state(), stored little-endian at `words` (any alignment), decoded
  /// straight into this estimator's storage. Rejects a size mismatch or any
  /// residue outside [0, q) before writing, leaving the state as it was.
  Status RestoreState(const void* words, size_t n);

 private:
  Status CheckMergeable(const SisL0Estimator& other, const char* op) const;

  SisL0Params params_;
  crypto::SisMatrix matrix_;
  std::vector<uint64_t> state_;  // num_chunks x sketch_rows, chunk-major
};

/// Chunked sum baseline: one Z counter per chunk. Broken by design.
class NaiveSumL0 final
    : public core::StreamAlg<stream::TurnstileUpdate, double> {
 public:
  NaiveSumL0(uint64_t universe, uint64_t chunk_width);

  Status Update(const stream::TurnstileUpdate& u) override;
  double Query() const override;
  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;

  uint64_t chunk_width() const { return chunk_width_; }

 private:
  uint64_t universe_;
  uint64_t chunk_width_;
  std::vector<int64_t> sums_;
};

/// K-minimum-values distinct counter (insertion streams). The hash seed is
/// exposed state — precisely what the white-box adversary exploits.
class KmvDistinct final : public core::StreamAlg<stream::ItemUpdate, double> {
 public:
  KmvDistinct(size_t k, wbs::RandomTape* tape);

  Status Update(const stream::ItemUpdate& u) override;
  double Query() const override;
  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;
  wbs::RandomTape* MutableTape() override { return tape_; }

  /// The public hash the estimator applies to items.
  uint64_t HashItem(uint64_t item) const;
  uint64_t hash_seed() const { return hash_seed_; }
  size_t k() const { return k_; }
  /// Current k-th minimum (max of the kept set), 2^64-1 if not yet full.
  uint64_t Threshold() const;

 private:
  size_t k_;
  wbs::RandomTape* tape_;
  uint64_t hash_seed_;
  std::set<uint64_t> smallest_;  // at most k smallest hash values seen
};

/// The white-box adversary against KmvDistinct: reads the hash seed and the
/// current threshold from the state view and emits fresh items hashing
/// *above* the threshold, so the sketch never updates while L0 grows.
class KmvBlindingAdversary final
    : public core::Adversary<stream::ItemUpdate, double> {
 public:
  KmvBlindingAdversary(const KmvDistinct* victim, uint64_t universe)
      : victim_(victim), universe_(universe) {}

  std::optional<stream::ItemUpdate> NextUpdate(const core::StateView& view,
                                               const double&) override;

  uint64_t items_emitted() const { return next_probe_; }

 private:
  const KmvDistinct* victim_;
  uint64_t universe_;
  uint64_t next_probe_ = 0;
};

}  // namespace wbs::distinct

#endif  // WBS_DISTINCT_L0_ESTIMATOR_H_
