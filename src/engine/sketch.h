// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The type-erased sketch interface of the sharded ingestion engine.
//
// The per-algorithm classes under src/heavyhitters, src/distinct,
// src/moments and src/linalg each expose their own update and query types —
// exactly right for the white-box game harness, but unusable as a uniform
// serving surface. The engine wraps each of them behind `Sketch`:
//
//   * every sketch ingests TurnstileUpdate batches (an ItemUpdate is a
//     turnstile update with delta == 1; insertion-only sketches reject
//     negative deltas with InvalidArgument);
//   * every sketch answers queries through a `SketchSummary` — a scalar
//     (L0, F2, rank verdicts) and/or a weighted candidate list (heavy
//     hitters);
//   * every sketch can merge: shard-local instances combine into one global
//     answer. Linear sketches (AMS, SIS-L0, rank) merge at the state level
//     and the merged state is bit-identical to a single-instance run;
//     Misra-Gries merges with the mergeable-summaries guarantee; sampling
//     sketches (robust/CRHF HH) merge at the answer level, which is exact
//     for the engine because the ingestor partitions the universe across
//     shards (every item's entire substream lives in exactly one shard).
//
// The adversarial-game semantics of the wrapped algorithms are untouched:
// the engine only changes the plumbing around them, and every shard's
// randomness is derived deterministically from (config seed, shard index),
// so a sharded run is replayable bit-for-bit.

#ifndef WBS_ENGINE_SKETCH_H_
#define WBS_ENGINE_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "heavyhitters/misra_gries.h"
#include "stream/updates.h"

namespace wbs::engine {

namespace wire {
class Writer;
class Reader;
}  // namespace wire

/// Per-family configuration blocks. Each sketch family reads exactly one of
/// these (plus the shared fields of SketchConfig), so a caller tuning the
/// rank sketch never has to learn what `l0_c` means. Every block carries
/// fluent `With*` setters so configs compose as one expression:
///
///   SketchConfig cfg = SketchConfig{}
///       .WithUniverse(1 << 20)
///       .WithSeed(7)
///       .With(MisraGriesOptions{}.WithCounters(256))
///       .With(AmsOptions{}.WithRows(64));
struct MisraGriesOptions {
  size_t counters = 64;  ///< Misra-Gries capacity k
  MisraGriesOptions& WithCounters(size_t k) {
    counters = k;
    return *this;
  }
};

struct AmsOptions {
  size_t rows = 48;  ///< AMS sign projections
  AmsOptions& WithRows(size_t r) {
    rows = r;
    return *this;
  }
};

struct SisL0Options {
  double eps = 0.5;   ///< chunking exponent
  double c = 0.25;    ///< sketch-rows exponent
  uint64_t f_inf_bound = uint64_t{1} << 20;  ///< promised ||f||_inf bound
  SisL0Options& WithEps(double e) {
    eps = e;
    return *this;
  }
  SisL0Options& WithC(double v) {
    c = v;
    return *this;
  }
  SisL0Options& WithFInfBound(uint64_t b) {
    f_inf_bound = b;
    return *this;
  }
};

struct RankOptions {
  size_t n = 64;          ///< matrix dimension
  size_t k = 8;           ///< decision threshold
  uint64_t q = 1000003;   ///< field modulus
  RankOptions& WithN(size_t v) {
    n = v;
    return *this;
  }
  RankOptions& WithK(size_t v) {
    k = v;
    return *this;
  }
  RankOptions& WithQ(uint64_t v) {
    q = v;
    return *this;
  }
};

/// Shared by the sampling heavy hitter families (robust_hh, crhf_hh) and
/// the Misra-Gries report threshold.
struct HeavyHitterOptions {
  double eps = 0.1;     ///< heavy hitter threshold / accuracy knob
  double phi = 0.2;     ///< report threshold for (phi, eps)-HH
  double delta = 0.25;  ///< failure probability budget
  uint64_t time_budget_t = uint64_t{1} << 20;  ///< CRHF adversary budget T
  HeavyHitterOptions& WithEps(double e) {
    eps = e;
    return *this;
  }
  HeavyHitterOptions& WithPhi(double p) {
    phi = p;
    return *this;
  }
  HeavyHitterOptions& WithDelta(double d) {
    delta = d;
    return *this;
  }
  HeavyHitterOptions& WithTimeBudget(uint64_t t) {
    time_budget_t = t;
    return *this;
  }
};

/// Configuration handed to a sketch factory. `seed` drives *shared*
/// randomness (sign matrices, random oracles) and must be identical across
/// the shard copies of one logical sketch so state-level merges line up;
/// `shard_seed` drives *private* randomness (sampling tapes) and is
/// overwritten per shard by the ingestor. Family-specific knobs live in the
/// per-family option blocks above (defaults are sensible test-scale values).
struct SketchConfig {
  uint64_t universe = uint64_t{1} << 16;
  uint64_t seed = 1;       ///< shared randomness (see above)
  uint64_t shard_seed = 1; ///< per-shard randomness (set by the ingestor)

  HeavyHitterOptions hh;
  MisraGriesOptions misra_gries;
  AmsOptions ams;
  SisL0Options sis_l0;
  RankOptions rank;

  SketchConfig& WithUniverse(uint64_t u) {
    universe = u;
    return *this;
  }
  SketchConfig& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }
  SketchConfig& With(const HeavyHitterOptions& o) {
    hh = o;
    return *this;
  }
  SketchConfig& With(const MisraGriesOptions& o) {
    misra_gries = o;
    return *this;
  }
  SketchConfig& With(const AmsOptions& o) {
    ams = o;
    return *this;
  }
  SketchConfig& With(const SisL0Options& o) {
    sis_l0 = o;
    return *this;
  }
  SketchConfig& With(const RankOptions& o) {
    rank = o;
    return *this;
  }
};

/// A non-owning view of a run of turnstile updates.
///
/// The ingestor additionally attaches a *shared pre-aggregation* of the
/// batch — duplicate items combined in first-occurrence order, zero-delta
/// entries dropped — computed once per shard batch so that every
/// weight-equivalent sketch (linear sketches, weighted Misra-Gries) can
/// consume it without re-aggregating. Sampling sketches always sample the
/// raw `data` (a Bernoulli sample of w unit updates is not one weighted
/// update); crhf_hh reads the aggregation only to hash each distinct item
/// once.
struct UpdateBatch {
  const stream::TurnstileUpdate* data = nullptr;
  size_t size = 0;

  // Optional shared pre-aggregation (null when the caller did not build
  // one; wrappers then aggregate locally if they want to).
  const stream::TurnstileUpdate* aggregated = nullptr;
  size_t aggregated_size = 0;
  uint64_t effective_updates = 0;   ///< nonzero-delta entries in `data`
  bool has_negative_delta = false;  ///< any raw delta < 0 (insertion guard)
};

/// An open-addressing map from item to position, sized per batch and reused
/// across batches: power-of-two slots, at least twice the entries, linear
/// probing from a Fibonacci hash. Entries live in a dense array in insertion
/// order; a slot holds 1 + the entry's index, 0 when empty. Reset() costs
/// O(expected entries), never O(largest batch ever), and storage is kept:
/// a batch no larger, in updates and in distinct items, than one the table
/// has already held allocates nothing.
class FlatItemIndex {
 public:
  using Entry = std::pair<uint64_t, size_t>;  ///< (item, position)

  /// Empties the table and sizes it for up to `expected` entries.
  void Reset(size_t expected) {
    entries_.clear();
    Resize(expected);
  }

  /// Inserts (item, pos) unless the item is present. Returns the item's
  /// entry and whether it was inserted, like std::unordered_map::emplace.
  std::pair<Entry*, bool> emplace(uint64_t item, size_t pos) {
    if (2 * (entries_.size() + 1) > slots_.size()) Resize(entries_.size() + 1);
    size_t h = Home(item);
    for (; slots_[h] != 0; h = (h + 1) & (slots_.size() - 1)) {
      Entry& e = entries_[slots_[h] - 1];
      if (e.first == item) return {&e, false};
    }
    entries_.emplace_back(item, pos);
    slots_[h] = uint32_t(entries_.size());
    return {&entries_.back(), true};
  }

  /// The item's entry, or nullptr.
  const Entry* find(uint64_t item) const {
    if (slots_.empty()) return nullptr;
    for (size_t h = Home(item); slots_[h] != 0;
         h = (h + 1) & (slots_.size() - 1)) {
      const Entry& e = entries_[slots_[h] - 1];
      if (e.first == item) return &e;
    }
    return nullptr;
  }

 private:
  /// Fibonacci hashing: the top bits of item * 2^64/phi.
  size_t Home(uint64_t item) const {
    return size_t((item * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Rebuilds the slots for `entries` entries, re-homing the current ones.
  void Resize(size_t entries) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * entries) ++bits;
    shift_ = 64 - bits;
    slots_.assign(size_t{1} << bits, 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t h = Home(entries_[i].first);
      while (slots_[h] != 0) h = (h + 1) & (slots_.size() - 1);
      slots_[h] = uint32_t(i + 1);
    }
  }

  int shift_ = 60;
  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
};

/// Aggregates `count` updates into `out` (first-occurrence order, zero
/// deltas dropped), reusing `index` as scratch. Returns {effective updates,
/// any-negative-delta}. A duplicate whose accumulation would overflow
/// int64_t is kept as its own entry instead (the view is then only mostly
/// deduplicated — consumers must apply entries sequentially, never assume
/// item uniqueness). Shared by the ingestor's per-shard aggregation and the
/// wrappers' local fallback so the two paths cannot diverge. The engine
/// passes a FlatItemIndex, which allocates nothing once warm; any map with
/// std::unordered_map's clear()/emplace() (item → position) also works and
/// gives the same output entry for entry.
template <typename Index>
std::pair<uint64_t, bool> AggregateUpdates(
    const stream::TurnstileUpdate* data, size_t count,
    std::vector<stream::TurnstileUpdate>* out, Index* index) {
  out->clear();
  if constexpr (requires { index->Reset(count); }) {
    index->Reset(count);
  } else {
    index->clear();
  }
  uint64_t effective = 0;
  bool has_negative = false;
  for (size_t i = 0; i < count; ++i) {
    const auto& u = data[i];
    if (u.delta == 0) continue;
    ++effective;
    has_negative |= u.delta < 0;
    auto [it, inserted] = index->emplace(u.item, out->size());
    if (inserted) {
      out->push_back(u);
    } else {
      int64_t& acc = (*out)[it->second].delta;
      int64_t sum;
      if (__builtin_add_overflow(acc, u.delta, &sum)) {
        out->push_back(u);  // overflow: keep as a separate entry
      } else {
        acc = sum;
      }
    }
  }
  return {effective, has_negative};
}

/// The mergeable query answer of a sketch: a scalar and/or a candidate list.
struct SketchSummary {
  std::string sketch;        ///< registry name of the producing sketch
  bool has_scalar = false;
  double scalar = 0;         ///< L0 / F2 estimate, rank verdict (0/1), ...
  std::vector<hh::WeightedItem> items;  ///< HH candidates, estimate-descending
  /// Positions of `items` sorted by item id; built by SortItems() so point
  /// lookups are O(log n) instead of a linear scan. Empty when the producer
  /// never called SortItems() (Estimate then falls back to scanning).
  std::vector<uint32_t> item_index;
  uint64_t updates = 0;      ///< effective (nonzero-delta) updates summarized
  /// Degradation marker: true when one or more shards were unreachable and
  /// the answer was served from the last successfully folded state instead
  /// of the live epochs (see FailoverOptions in client.h). Always false
  /// for healthy engines; propagated onto the typed query results.
  bool stale = false;

  /// Estimated frequency of `item` from the candidate list (0 if absent).
  double Estimate(uint64_t item) const {
    if (item_index.size() == items.size() && !items.empty()) {
      auto it = std::lower_bound(
          item_index.begin(), item_index.end(), item,
          [this](uint32_t pos, uint64_t v) { return items[pos].item < v; });
      if (it != item_index.end() && items[*it].item == item) {
        return items[*it].estimate;
      }
      return 0;
    }
    for (const auto& wi : items) {
      if (wi.item == item) return wi.estimate;
    }
    return 0;
  }

  /// Sorts the candidate list estimate-descending (the TopK order) and
  /// rebuilds the by-item lookup index over it.
  void SortItems() {
    std::sort(items.begin(), items.end(),
              [](const hh::WeightedItem& a, const hh::WeightedItem& b) {
                return a.estimate > b.estimate ||
                       (a.estimate == b.estimate && a.item < b.item);
              });
    item_index.resize(items.size());
    for (uint32_t i = 0; i < item_index.size(); ++i) item_index[i] = i;
    std::sort(item_index.begin(), item_index.end(),
              [this](uint32_t a, uint32_t b) {
                return items[a].item < items[b].item;
              });
  }
};

/// Type-erased streaming sketch: batched turnstile ingestion, summary
/// queries, and merging. Instances are NOT thread-safe; the ingestor gives
/// each shard-local instance to exactly one worker.
class Sketch {
 public:
  virtual ~Sketch() = default;

  /// Registry name of this sketch ("misra_gries", "ams_f2", ...).
  virtual const std::string& name() const = 0;

  /// Applies a single turnstile update.
  virtual Status Update(const stream::TurnstileUpdate& u) = 0;

  /// Applies a whole batch. The default loops over Update(); wrappers of
  /// linear or weighted sketches override it to pre-aggregate duplicate
  /// items, amortizing per-update virtual-dispatch, hashing and RNG costs —
  /// on skewed (Zipfian) traffic this is the engine's main throughput lever.
  virtual Status ApplyBatch(const UpdateBatch& batch) {
    for (size_t i = 0; i < batch.size; ++i) {
      Status s = Update(batch.data[i]);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// The current queryable answer.
  virtual SketchSummary Summary() const = 0;

  /// Merges another shard-local instance of the same sketch (same name and
  /// config) into this one. Sketches that merge at the answer level require
  /// `this` to be a *fresh* instance (no updates ingested) used purely as a
  /// merge accumulator; state-mergeable sketches accept any target. The
  /// engine always merges into fresh instances, which is valid for every
  /// sketch kind.
  virtual Status MergeFrom(const Sketch& other) = 0;

  /// Exact inverse of MergeFrom, where one exists: removes `other`'s
  /// previously merged contribution from this accumulator. Linear sketches
  /// (AMS, SIS-L0, rank) implement it — their state is a sum, so a stale
  /// shard term can be subtracted out. The default returns Unimplemented,
  /// which the engine's merge cache treats as "refold from scratch".
  virtual Status UnmergeFrom(const Sketch& other) {
    (void)other;
    return Status::Unimplemented(name() + ": UnmergeFrom not supported");
  }

  /// Serializes the sketch's state into the engine wire format (see
  /// wire.h) so it can cross a process boundary and be restored by
  /// DeserializeState on a peer constructed with the SAME SketchConfig.
  /// Every builtin family implements the pair; the payload starts with the
  /// registry name and a per-family state-version byte, and restoring it
  /// must reproduce Summary() bit-identically (state-level for the linear
  /// families and Misra-Gries; answer-level for the sampling heavy hitters,
  /// whose deserialized form is a read-only merge accumulator — exactly
  /// what the engine's snapshot/merge path consumes). The default returns
  /// Unimplemented, which remote backends surface at snapshot time.
  virtual Status SerializeState(wire::Writer& w) const {
    (void)w;
    return Status::Unimplemented(name() + ": SerializeState not supported");
  }

  /// Inverse of SerializeState. Only valid on a freshly constructed
  /// instance (no updates, no merges); implementations validate the payload
  /// against their configuration (name, dimensions, shared-randomness
  /// fingerprints) and fail with a Status — never crash, never silently
  /// accept — on any mismatch, truncation, or unknown state version.
  virtual Status DeserializeState(wire::Reader& r) {
    (void)r;
    return Status::Unimplemented(name() + ": DeserializeState not supported");
  }

  /// Information-theoretic size of the wrapped state, in bits.
  virtual uint64_t SpaceBits() const = 0;
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_SKETCH_H_
