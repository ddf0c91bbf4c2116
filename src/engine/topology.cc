// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/topology.h"

#include <algorithm>
#include <utility>

namespace wbs::engine {

std::shared_ptr<const TopologyView> ShardTopology::MakeInitial(
    std::vector<ShardPlacement> placements, size_t slots_per_shard) {
  auto view = std::make_shared<TopologyView>();
  view->generation = 1;
  view->routing_generation = 1;
  const size_t num_shards = placements.size();
  const size_t num_slots = num_shards * std::max<size_t>(1, slots_per_shard);
  view->slot_to_shard.resize(num_slots);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    // slot % num_shards makes slot routing reproduce the legacy
    // hash-mod-shards partition bit-for-bit (see topology.h).
    view->slot_to_shard[slot] = uint32_t(slot % num_shards);
  }
  view->placements = std::move(placements);
  view->owned_slots.assign(num_shards, 0);
  for (uint32_t owner : view->slot_to_shard) ++view->owned_slots[owner];
  return view;
}

std::shared_ptr<const TopologyView> ShardTopology::WithAddedShards(
    const TopologyView& base, const std::vector<ShardPlacement>& added) {
  auto view = std::make_shared<TopologyView>(base);
  view->generation = base.generation + 1;
  view->routing_generation = base.routing_generation + 1;  // slots move
  const size_t first_new = view->placements.size();
  for (const ShardPlacement& p : added) view->placements.push_back(p);

  // Steal slots for the new shards: each should own ~num_slots/num_shards.
  // Deterministic greedy — repeatedly take the highest-index slot from the
  // currently most-loaded owner (ties: lowest shard id). With more shards
  // than slots the late shards own zero slots; they are still merge-visible
  // and still valid handoff targets.
  std::vector<uint32_t>& owned = view->owned_slots;
  owned.resize(view->placements.size(), 0);
  const size_t target = view->num_slots() / view->num_shards();
  for (size_t b = first_new; b < view->placements.size(); ++b) {
    for (size_t take = 0; take < target; ++take) {
      size_t donor = view->placements.size();
      for (size_t s = 0; s < owned.size(); ++s) {
        if (donor == view->placements.size() || owned[s] > owned[donor]) {
          donor = s;
        }
      }
      if (donor == view->placements.size() || owned[donor] <= target) break;
      for (size_t slot = view->num_slots(); slot-- > 0;) {
        if (view->slot_to_shard[slot] == donor) {
          view->slot_to_shard[slot] = uint32_t(b);
          --owned[donor];
          ++owned[b];
          break;
        }
      }
    }
  }
  return view;
}

Result<std::shared_ptr<const TopologyView>> ShardTopology::WithMovedShard(
    const TopologyView& base, size_t shard, ShardPlacement target) {
  if (shard >= base.num_shards()) {
    return Status::OutOfRange("ShardTopology: shard id out of range");
  }
  if (target.backend == nullptr) {
    return Status::InvalidArgument("ShardTopology: null target placement");
  }
  auto view = std::make_shared<TopologyView>(base);
  view->generation = base.generation + 1;
  view->placements[shard] = target;
  return Result<std::shared_ptr<const TopologyView>>(std::move(view));
}

Result<std::shared_ptr<const TopologyView>> ShardTopology::WithMovedSlots(
    const TopologyView& base, const std::vector<uint32_t>& slots,
    size_t dest) {
  if (dest >= base.num_shards()) {
    return Status::OutOfRange("ShardTopology: dest shard id out of range");
  }
  if (slots.empty()) {
    return Status::InvalidArgument("ShardTopology: no slots to move");
  }
  // All slots must share one source owner, distinct from dest — a slot
  // move is a handoff FROM a shard, not an arbitrary table rewrite.
  size_t source = base.num_shards();
  for (uint32_t slot : slots) {
    if (slot >= base.num_slots()) {
      return Status::OutOfRange("ShardTopology: slot id out of range");
    }
    const size_t owner = base.slot_to_shard[slot];
    if (source == base.num_shards()) source = owner;
    if (owner != source) {
      return Status::InvalidArgument(
          "ShardTopology: slots span multiple source shards");
    }
  }
  if (source == dest) {
    return Status::InvalidArgument(
        "ShardTopology: slot already owned by dest shard");
  }
  auto view = std::make_shared<TopologyView>(base);
  view->generation = base.generation + 1;
  view->routing_generation = base.routing_generation + 1;  // slots move
  for (uint32_t slot : slots) {
    if (view->slot_to_shard[slot] == dest) continue;  // duplicate in `slots`
    view->slot_to_shard[slot] = uint32_t(dest);
    --view->owned_slots[source];
    ++view->owned_slots[dest];
  }
  return Result<std::shared_ptr<const TopologyView>>(std::move(view));
}

TopologyInfo ShardTopology::Describe() const {
  std::shared_ptr<const TopologyView> view = View();
  TopologyInfo info;
  info.generation = view->generation;
  info.num_shards = view->num_shards();
  info.num_slots = view->num_slots();
  info.slots_per_shard.assign(view->owned_slots.begin(),
                              view->owned_slots.end());
  return info;
}

}  // namespace wbs::engine
