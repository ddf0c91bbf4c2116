// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// ShardTopology — the engine's epoch-versioned routing layer.
//
// Routing is an explicit, generation-stamped table
//
//   item --hash--> slot --slot_to_shard--> shard id --placement--> cell
//
// published as an immutable TopologyView that producers, the router, and
// the query path each read with one cheap shared_ptr copy. Mutations
// (scale-out, shard handoff) build a NEW view and install it at a batch
// barrier; readers holding the old view keep getting consistent answers,
// exactly like the per-shard snapshot epochs one level below.
//
// Slot routing, not modulo routing. The hash space is split into
// `num_slots = initial_shards * slots_per_shard` fixed slots; an item's
// slot never changes, only the slot's owner does. The initial table maps
// slot -> slot % initial_shards, which makes slot routing reproduce the
// legacy `hash % num_shards` partition bit-for-bit ((h mod k*S) mod S ==
// h mod S), so every pre-topology run replays identically.
//
// The two live operations:
//
//   * SCALE-OUT (AddShards): fresh shards join, and slots are stolen
//     evenly from the most-loaded owners. An item whose slot moved has its
//     substream split across the old and new owner — correct because the
//     engine's answers are a MERGE OVER ALL SHARDS EVER: linear sketches
//     (ams_f2, sis_l0, rank_decision) sum state and stay bit-identical to
//     any partitioning; Misra-Gries keeps the mergeable-summaries bound;
//     sampling heavy hitters union per-substream candidate lists (the
//     paper's mergeable-summary semantics — a shard's sketch keeps
//     answering for the substream it saw, forever).
//   * HANDOFF (MoveShard): a shard id is re-pointed at a different
//     backend cell. Its serialized snapshot state is the transfer format,
//     so the id keeps its derived shard seed and its entire history; the
//     old placement's state stays untouched for readers of older views.
//
// Generations are the cache key one level above snapshot epochs: the merge
// cache folds (generation, per-shard epochs), and any generation bump
// invalidates wholesale (shard count or placement changed under it).

#ifndef WBS_ENGINE_TOPOLOGY_H_
#define WBS_ENGINE_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace wbs::engine {

class ShardBackend;

/// Where one global shard id lives: its one-shard backend cell. Views SHARE
/// ownership of the cell: a retired placement (its shard moved away, or its
/// peer crashed and was re-homed) lives exactly as long as the last
/// TopologyView referencing it, then its destructor reclaims the cell —
/// including a self-hosted tcp host's threads and fds. A long-lived engine
/// that reshards and recovers continuously therefore holds a bounded set
/// of cells, not one per change ever made.
struct ShardPlacement {
  std::shared_ptr<ShardBackend> backend;
  /// The cell's network endpoint ("host:port"), empty for in-process
  /// cells, which have no network home. This is the supervision layer's
  /// FAILURE DOMAIN key: when one shard on an endpoint misses a heartbeat,
  /// every healthy placement sharing that endpoint goes suspect together —
  /// a dead host takes all its shards, not one probe victim at a time.
  std::string endpoint;
};

/// An immutable routing table. Shared (never mutated) between every thread
/// that grabbed it; a topology change installs a new instance.
struct TopologyView {
  uint64_t generation = 0;  ///< bumped on every installed change
  /// Bumped only when slot_to_shard changes (scale-out). A handoff bumps
  /// `generation` but not this — producers' pre-scattered batches remain
  /// correctly partitioned, so the router skips the re-scatter.
  uint64_t routing_generation = 0;
  /// slot_to_shard[h % num_slots()] is the owning shard id.
  std::vector<uint32_t> slot_to_shard;
  /// Placement per global shard id; size() is the current shard count.
  std::vector<ShardPlacement> placements;
  /// owned_slots[shard] counts the slots that shard owns — maintained by
  /// every view constructor so SlotsOwnedBy is O(1), not an O(num_slots)
  /// scan (the autoscaler reads it every evaluation cycle).
  std::vector<uint32_t> owned_slots;

  size_t num_slots() const { return slot_to_shard.size(); }
  size_t num_shards() const { return placements.size(); }

  /// The slot an item hashes to. With num_slots == num_shards this is the
  /// legacy hash-mod-shards partition, which the initial table reproduces.
  static size_t SlotOf(uint64_t item, size_t num_slots) {
    uint64_t s = item ^ 0x9e3779b97f4a7c15ULL;
    return size_t(SplitMix64(&s) % num_slots);
  }

  size_t ShardFor(uint64_t item) const {
    return slot_to_shard[SlotOf(item, slot_to_shard.size())];
  }

  /// Slots currently owned by `shard` (diagnostics, stealing, tests,
  /// autoscaler decisions). O(1): reads the maintained per-shard count.
  size_t SlotsOwnedBy(size_t shard) const {
    return shard < owned_slots.size() ? owned_slots[shard] : 0;
  }

  /// The slot ids owned by `shard`, ascending (slot-move planning).
  std::vector<uint32_t> OwnedSlotIds(size_t shard) const {
    std::vector<uint32_t> slots;
    if (shard < owned_slots.size()) slots.reserve(owned_slots[shard]);
    for (uint32_t slot = 0; slot < slot_to_shard.size(); ++slot) {
      if (slot_to_shard[slot] == shard) slots.push_back(slot);
    }
    return slots;
  }
};

/// A caller-facing description of the current table (tests, examples,
/// benches); cheap copies, no backend pointers.
struct TopologyInfo {
  uint64_t generation = 0;
  size_t num_shards = 0;
  size_t num_slots = 0;
  std::vector<size_t> slots_per_shard;  ///< indexed by shard id
};

/// The mutable holder: one swappable current view. All mutations go
/// through Install() at a barrier chosen by the owner (the Client's
/// router); readers call View() from any thread at any time — a mutex
/// held only for the shared_ptr copy. (Not std::atomic<shared_ptr>:
/// libstdc++'s _Sp_atomic::load releases its spinlock with a relaxed
/// RMW, which is a formal data race against a later store's plain
/// pointer write — TSan rightly flags it. View() runs once per
/// batch/query, so an uncontended lock is noise.)
class ShardTopology {
 public:
  /// The initial table: one shard per placement (shard id = index) over
  /// `placements.size() * slots_per_shard` slots, slot -> slot % num_shards
  /// (the legacy partition). Routing-only views may pass null backends.
  static std::shared_ptr<const TopologyView> MakeInitial(
      std::vector<ShardPlacement> placements, size_t slots_per_shard);

  /// A view with `added` new shards appended (placements supplied by the
  /// caller, one cell per new shard) and slots stolen evenly from the
  /// most-loaded owners so each new shard owns ~num_slots/num_shards.
  static std::shared_ptr<const TopologyView> WithAddedShards(
      const TopologyView& base, const std::vector<ShardPlacement>& added);

  /// A view with shard `shard` re-pointed at `target`. Slot table is
  /// unchanged — the id keeps its hash range and its derived seed.
  static Result<std::shared_ptr<const TopologyView>> WithMovedShard(
      const TopologyView& base, size_t shard, ShardPlacement target);

  /// A view with the given slots re-pointed from their current owner to
  /// shard `dest` — SLOT-LEVEL migration (a hot slot peeled off a hot
  /// shard without moving the whole shard). Every slot must currently
  /// belong to ONE source shard, which must differ from `dest`. Bumps
  /// both generations: the slot table changed, so pre-scattered batches
  /// must re-scatter. No sketch state moves — the source shard's state
  /// stays merge-visible, so answers remain a merge over all substreams
  /// ever (the same argument that makes AddShards slot stealing sound).
  static Result<std::shared_ptr<const TopologyView>> WithMovedSlots(
      const TopologyView& base, const std::vector<uint32_t>& slots,
      size_t dest);

  explicit ShardTopology(std::shared_ptr<const TopologyView> initial)
      : view_(std::move(initial)) {}

  /// The current table. A view obtained here is immutable and safe to
  /// route/fold against for as long as it is held.
  std::shared_ptr<const TopologyView> View() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_;
  }

  /// Installs a successor view. Caller is responsible for ordering (the
  /// Client installs only at router barriers).
  void Install(std::shared_ptr<const TopologyView> next) {
    // Drop the displaced view OUTSIDE the lock: releasing the last ref
    // can tear down backend cells (threads, fds), which must not run
    // under the routing mutex.
    std::shared_ptr<const TopologyView> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = std::exchange(view_, std::move(next));
    }
  }

  TopologyInfo Describe() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const TopologyView> view_;
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_TOPOLOGY_H_
