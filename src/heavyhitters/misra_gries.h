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
///
/// Layout: the tracked items and their counters sit in two dense arrays in
/// insertion order, beside an open-addressing item -> position index
/// (power-of-two slots, at least twice the tracked items, linear probing
/// from a Fibonacci hash). A hit adds in place and a miss with room
/// appends. A miss on a full summary runs one decrement round: a min over
/// the counter array, one stable sweep that subtracts and compacts the
/// survivors, then one rebuild of the index, all O(k).
///
/// Worst case: the index homes items by a public hash, so a white-box
/// adversary can choose k items that share one probe run, and a lookup then
/// costs O(k) probes. That is the order of the decrement round any
/// untracked item triggers on a full summary. A keyed hash would not help:
/// this adversary reads the key.
///
/// The index hash must stay unrelated to how a caller partitions items.
/// The engine shards by SplitMix64 (TopologyView::SlotOf), so one shard's
/// items spread over all of the index's homes; sharding by the same
/// Fibonacci top bits would crowd them into a fraction of the homes.
class MisraGries {
 public:
  explicit MisraGries(size_t k) : k_(k) {}

  /// Processes one occurrence of `item` with integer weight `w` (>= 1; a
  /// zero weight is ignored).
  void Add(uint64_t item, uint64_t w = 1);

  /// Lower-bound estimate of item's frequency (0 if not tracked).
  uint64_t Estimate(uint64_t item) const;

  /// All currently tracked (item, counter) pairs, estimate descending, ties
  /// item-ascending.
  std::vector<WeightedItem> List() const;

  /// Replay merge: feeds the other summary's counters through Add() as
  /// weighted adds, item-ascending, so the merged summary covers the
  /// concatenated stream and depends only on the other summary's contents.
  /// This is not the O(k) combine-and-subtract merge of ACHPWY12: an
  /// untracked item reaching a full summary runs a decrement round, a pass
  /// over all k counters. The guarantee still holds, since a round by d
  /// leaves (k+1)·d of weight uncounted (d from each counter and from the
  /// new item): estimates never overestimate, and the additive
  /// underestimation error is at most ErrorBound() of the merged summary
  /// (processed/(k+1) over the combined weight). Requires equal k so the
  /// error bound stays predictable.
  Status MergeFrom(const MisraGries& other);

  /// Total stream weight processed.
  uint64_t processed() const { return processed_; }

  size_t k() const { return k_; }
  size_t tracked() const { return items_.size(); }

  /// Guaranteed additive error bound on estimates: processed / (k + 1).
  double ErrorBound() const { return double(processed_) / double(k_ + 1); }

  /// The tracked (item, counter) pairs, item-ascending: the exact-state
  /// snapshot the engine's wire format ships (List() rounds counters
  /// through double; these stay uint64_t).
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
  static constexpr size_t kUntracked = ~size_t{0};

  /// Position of `item` in items_, or kUntracked.
  size_t Find(uint64_t item) const;

  /// Tracks a new item; the summary must have room and not hold it.
  void Append(uint64_t item, uint64_t count);

  /// Makes room for `n` tracked items without reallocating. Capacities are
  /// powers of two (capped at k), as push_back growth gives, so summaries
  /// restored or merged at many sizes share a few allocation sizes.
  void Reserve(size_t n);

  /// Sizes the index for `entries` entries (it never shrinks) and homes
  /// every tracked item again.
  void Reindex(size_t entries);

  /// Fibonacci hashing: the top bits of item * 2^64/phi.
  size_t Home(uint64_t item) const {
    return size_t((item * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  size_t k_;
  uint64_t processed_ = 0;
  std::vector<uint64_t> items_;     ///< tracked items, insertion order
  std::vector<uint64_t> counters_;  ///< counters_[i] > 0 counts items_[i]
  std::vector<uint32_t> slots_;     ///< 1 + position in items_; 0 = empty
  int shift_ = 60;                  ///< 64 - log2(slots_.size())
};

/// SpaceSaving summary with k counters: Estimate(i) >= f_i (overestimate),
/// error <= m/k. A baseline for comparison only: no solver in this library
/// uses it (Tms12Hhh keeps one MisraGries per level).
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
