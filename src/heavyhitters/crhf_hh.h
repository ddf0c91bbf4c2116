// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Theorem 1.2: the (phi, eps)-L1 heavy hitters problem against *T-time
// bounded* white-box adversaries.
//
// Idea (Section 1.2): run the sampled Misra-Gries over CRHF-compressed item
// identities. A counter key then costs O(log log n + log 1/eps + log T) bits
// instead of log n — a T-bounded adversary cannot find two items that
// collide under the CRHF, so compressed identities behave injectively.
// Only the O(1/phi) items that can actually be phi-heavy keep their full
// log n-bit identity (needed to *report* them), giving total space
//   O(1/eps * min(log n, log T) + 1/phi * log n + log log m).
//
// Cached derived values: this class keeps none of its own. The inner
// RobustL1HeavyHitters caches its rotation threshold and Morris clock
// values (robust_hh.h), and UpdateHashed() lets a caller reuse a CRHF image
// it already computed (the engine wrapper hashes each distinct item of a
// batch once). All of them follow from public state (the CRHF salt, the
// clock register, the guess exponent), so none is charged to SpaceBits().

#ifndef WBS_HEAVYHITTERS_CRHF_HH_H_
#define WBS_HEAVYHITTERS_CRHF_HH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/game.h"
#include "crypto/crhf.h"
#include "heavyhitters/robust_hh.h"
#include "stream/updates.h"

namespace wbs::hh {

/// (phi, eps)-heavy hitters with CRHF-compressed counter keys, robust
/// against white-box adversaries with time budget T.
class CrhfHeavyHitters final
    : public core::StreamAlg<stream::ItemUpdate, HhList> {
 public:
  /// `time_budget_t` is the adversary's total runtime T; the CRHF output
  /// width is chosen as 2 log T + log(candidates) + slack so a T-bounded
  /// adversary finds a collision with negligible probability.
  CrhfHeavyHitters(uint64_t universe, double phi, double eps,
                   uint64_t time_budget_t, wbs::RandomTape* tape);

  Status Update(const stream::ItemUpdate& u) override;

  /// Update with the CRHF image already computed — the batched-ingest path:
  /// callers hash a batch's distinct items 8 at a time via
  /// crhf().HashU64x8 and feed each result here, so every unit of an item
  /// in the batch pays for one compression. `hashed` MUST equal
  /// crhf().HashU64(item) (Debug builds assert it); behavior is otherwise
  /// identical to Update().
  Status UpdateHashed(uint64_t item, uint64_t hashed);

  /// The identity-compressing CRHF (public parameters; exposed so batch
  /// callers can precompute hashes with HashU64x8).
  const crypto::Sha256Crhf& crhf() const { return crhf_; }

  /// All items with f_i >= phi * L1 are reported; no item with
  /// f_j <= (phi - eps) * L1 is reported (with probability >= 3/4).
  HhList Query() const override;

  void SerializeState(core::StateWriter* w) const override;
  uint64_t SpaceBits() const override;
  wbs::RandomTape* MutableTape() override { return tape_; }

  int hash_bits() const { return crhf_.output_bits(); }
  double phi() const { return phi_; }
  double eps() const { return eps_; }

 private:
  void MaybePromote(uint64_t item, uint64_t hashed);

  uint64_t universe_;
  double phi_;
  double eps_;
  wbs::RandomTape* tape_;
  crypto::Sha256Crhf crhf_;

  /// Robust HH machinery over the *hashed* universe (Algorithm 2 applied to
  /// compressed identities).
  RobustL1HeavyHitters inner_;

  /// Identity table: hashed id -> original id, kept only for the heaviest
  /// O(1/phi) candidates (this is the 1/phi * log n term).
  std::unordered_map<uint64_t, uint64_t> identity_;
  size_t identity_capacity_;
};

}  // namespace wbs::hh

#endif  // WBS_HEAVYHITTERS_CRHF_HH_H_
