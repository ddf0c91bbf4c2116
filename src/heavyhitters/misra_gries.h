// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Deterministic counter-based heavy hitter summaries: Misra-Gries (Theorem
// 2.2) and SpaceSaving. Both are deterministic, hence trivially white-box
// robust — they are the baselines the paper's randomized algorithms beat in
// space on long streams.

#ifndef WBS_HEAVYHITTERS_MISRA_GRIES_H_
#define WBS_HEAVYHITTERS_MISRA_GRIES_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/status.h"

namespace wbs::hh {

/// An item together with an estimated frequency.
struct WeightedItem {
  uint64_t item = 0;
  double estimate = 0;
};

/// Misra-Gries summary with k counters (Theorem 2.2 instantiates
/// k = ceil(2/eps)). Guarantees f_i - m/(k+1) <= Estimate(i) <= f_i.
class MisraGries {
 public:
  explicit MisraGries(size_t k) : k_(k) {}

  /// Processes one occurrence of `item` with integer weight `w` (>= 1).
  void Add(uint64_t item, uint64_t w = 1);

  /// Lower-bound estimate of item's frequency (0 if not tracked).
  uint64_t Estimate(uint64_t item) const;

  /// All currently tracked (item, counter) pairs.
  std::vector<WeightedItem> List() const;

  /// Replay merge: feeds the other summary's counters through Add() as
  /// weighted adds, item-ascending, so the merged summary covers the
  /// concatenated stream. This is not the O(k) combine-and-subtract merge of
  /// ACHPWY12: an untracked item reaching a full summary runs decrement
  /// rounds, each a pass over all k counters. The guarantee still holds,
  /// since a round by d leaves (k+1)·d of weight uncounted (d from each
  /// counter and from the new item): estimates never overestimate, and the
  /// additive underestimation error is at most ErrorBound() of the merged
  /// summary (processed/(k+1) over the combined weight). Requires equal k so
  /// the error bound stays predictable.
  Status MergeFrom(const MisraGries& other);

  /// Total stream weight processed.
  uint64_t processed() const { return processed_; }

  size_t k() const { return k_; }
  size_t tracked() const { return counters_.size(); }

  /// Guaranteed additive error bound on estimates: processed / (k + 1).
  double ErrorBound() const { return double(processed_) / double(k_ + 1); }

  /// The tracked (item, counter) pairs in internal iteration order — the
  /// exact-state snapshot the engine's wire format ships (List() rounds
  /// counters through double; these stay uint64_t).
  std::vector<std::pair<uint64_t, uint64_t>> CounterEntries() const;

  /// Replaces the summary's state with a previously captured snapshot.
  /// Entries must be distinct items with nonzero counters, at most k of
  /// them, and their weight must not exceed `processed`; violations are a
  /// Status error and leave the summary unchanged.
  Status RestoreState(
      uint64_t processed,
      const std::vector<std::pair<uint64_t, uint64_t>>& entries);

  /// Bits for the current state: per tracked item, an identifier from the
  /// universe plus its counter; plus nothing else (deterministic).
  uint64_t SpaceBits(uint64_t universe) const;

  /// Worst-case bits for a full summary on a length-m stream: the
  /// O((1/eps)(log m + log n)) of Theorem 2.2.
  static uint64_t WorstCaseSpaceBits(size_t k, uint64_t universe, uint64_t m);

 private:
  size_t k_;
  uint64_t processed_ = 0;
  std::unordered_map<uint64_t, uint64_t> counters_;
};

/// SpaceSaving summary with k counters: Estimate(i) >= f_i (overestimate),
/// error <= m/k. Used by the TMS12 hierarchical heavy hitters algorithm.
class SpaceSaving {
 public:
  explicit SpaceSaving(size_t k) : k_(k) {}

  void Add(uint64_t item, uint64_t w = 1);

  /// Upper-bound estimate (0 if never tracked and summary not full).
  uint64_t Estimate(uint64_t item) const;

  /// Maximum possible overestimation of any reported count.
  uint64_t MaxError() const { return min_count_; }

  std::vector<WeightedItem> List() const;

  uint64_t processed() const { return processed_; }
  size_t k() const { return k_; }

  uint64_t SpaceBits(uint64_t universe) const;

 private:
  size_t k_;
  uint64_t processed_ = 0;
  uint64_t min_count_ = 0;  // smallest tracked counter once full
  std::unordered_map<uint64_t, uint64_t> counters_;
};

}  // namespace wbs::hh

#endif  // WBS_HEAVYHITTERS_MISRA_GRIES_H_
