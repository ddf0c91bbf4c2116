// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "heavyhitters/misra_gries.h"

#include <algorithm>
#include <bit>

namespace wbs::hh {

void MisraGries::Add(uint64_t item, uint64_t w) {
  if (w == 0) return;
  processed_ += w;
  const size_t pos = Find(item);
  if (pos != kUntracked) {
    counters_[pos] += w;
    return;
  }
  if (items_.size() < k_) {
    Append(item, w);
    return;
  }
  // Full: one decrement round by d = min(w, smallest counter) takes d from
  // every counter and from the new item. When d is the smallest counter,
  // that counter drops out and the item takes its place with w - d;
  // otherwise d = w and the item is spent. Either way one round suffices.
  uint64_t d = w;
  for (uint64_t c : counters_) d = std::min(d, c);
  size_t kept = 0;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const uint64_t c = counters_[i] - d;
    items_[kept] = items_[i];
    counters_[kept] = c;
    kept += c != 0;
  }
  if (kept == counters_.size()) return;  // no position moved
  items_.resize(kept);
  counters_.resize(kept);
  Reindex(kept);
  if (w > d) Append(item, w - d);
}

size_t MisraGries::Find(uint64_t item) const {
  if (slots_.empty()) return kUntracked;
  const size_t mask = slots_.size() - 1;
  for (size_t h = Home(item);; h = (h + 1) & mask) {
    const uint32_t slot = slots_[h];
    if (slot == 0) return kUntracked;
    if (items_[slot - 1] == item) return slot - 1;
  }
}

void MisraGries::Append(uint64_t item, uint64_t count) {
  items_.push_back(item);
  counters_.push_back(count);
  if (2 * items_.size() > slots_.size()) {
    Reindex(items_.size());
    return;
  }
  size_t h = Home(item);
  while (slots_[h] != 0) h = (h + 1) & (slots_.size() - 1);
  slots_[h] = uint32_t(items_.size());
}

void MisraGries::Reserve(size_t n) {
  const size_t capacity = std::min(k_, std::bit_ceil(n));
  items_.reserve(capacity);
  counters_.reserve(capacity);
  if (2 * n > slots_.size()) Reindex(n);
}

void MisraGries::Reindex(size_t entries) {
  int bits = 4;
  while ((size_t{1} << bits) < 2 * entries) ++bits;
  if ((size_t{1} << bits) > slots_.size()) {
    slots_.assign(size_t{1} << bits, 0);
    shift_ = 64 - bits;
  } else {
    std::fill(slots_.begin(), slots_.end(), 0);
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < items_.size(); ++i) {
    size_t h = Home(items_[i]);
    while (slots_[h] != 0) h = (h + 1) & mask;
    slots_[h] = uint32_t(i + 1);
  }
}

Status MisraGries::MergeFrom(const MisraGries& other) {
  if (k_ != other.k_) {
    return Status::FailedPrecondition(
        "MisraGries::MergeFrom: summaries must have equal capacity");
  }
  // Fold in canonical (item-ascending) order: when the merge overflows k
  // and a decrement round fires, the result then depends only on the other
  // summary's contents, so shard merges are bit-identical across backends.
  const auto entries = other.CounterEntries();
  Reserve(std::min(k_, items_.size() + entries.size()));
  uint64_t counter_weight = 0;
  for (const auto& [item, c] : entries) {
    Add(item, c);
    counter_weight += c;
  }
  // Weight the other summary already decremented away never reaches Add();
  // charge it anyway so processed() (and hence ErrorBound()) reflects the
  // full concatenated stream.
  processed_ += other.processed_ - counter_weight;
  return Status::OK();
}

std::vector<std::pair<uint64_t, uint64_t>> MisraGries::CounterEntries()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> out(items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    out[i] = {items_[i], counters_[i]};
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status MisraGries::RestoreState(
    uint64_t processed,
    const std::vector<std::pair<uint64_t, uint64_t>>& entries) {
  if (entries.size() > k_) {
    return Status::InvalidArgument(
        "MisraGries::RestoreState: more entries than counters");
  }
  MisraGries restored(k_);
  restored.Reserve(entries.size());
  uint64_t weight = 0;
  for (const auto& [item, c] : entries) {
    if (c == 0) {
      return Status::InvalidArgument(
          "MisraGries::RestoreState: zero counter");
    }
    if (restored.Find(item) != kUntracked) {
      return Status::InvalidArgument(
          "MisraGries::RestoreState: duplicate item");
    }
    if (__builtin_add_overflow(weight, c, &weight) || weight > processed) {
      return Status::InvalidArgument(
          "MisraGries::RestoreState: counter weight exceeds processed");
    }
    restored.Append(item, c);
  }
  restored.processed_ = processed;
  *this = std::move(restored);
  return Status::OK();
}

uint64_t MisraGries::Estimate(uint64_t item) const {
  const size_t pos = Find(item);
  return pos == kUntracked ? 0 : counters_[pos];
}

std::vector<WeightedItem> MisraGries::List() const {
  std::vector<WeightedItem> out(items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    out[i] = {items_[i], double(counters_[i])};
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.estimate > b.estimate ||
           (a.estimate == b.estimate && a.item < b.item);
  });
  return out;
}

uint64_t MisraGries::SpaceBits(uint64_t universe) const {
  uint64_t bits = 0;
  for (uint64_t c : counters_) {
    bits += wbs::BitsForUniverse(universe) + wbs::BitsForValue(c);
  }
  return bits;
}

uint64_t MisraGries::WorstCaseSpaceBits(size_t k, uint64_t universe,
                                        uint64_t m) {
  return k * (wbs::BitsForUniverse(universe) + wbs::BitsForValue(m));
}

void SpaceSaving::Add(uint64_t item, uint64_t w) {
  processed_ += w;
  auto it = counters_.find(item);
  if (it != counters_.end()) {
    it->second += w;
    return;
  }
  if (counters_.size() < k_) {
    counters_.emplace(item, w);
    return;
  }
  // Replace the minimum counter.
  auto min_it = counters_.begin();
  for (auto it2 = counters_.begin(); it2 != counters_.end(); ++it2) {
    if (it2->second < min_it->second) min_it = it2;
  }
  uint64_t new_count = min_it->second + w;
  min_count_ = min_it->second;
  counters_.erase(min_it);
  counters_.emplace(item, new_count);
}

uint64_t SpaceSaving::Estimate(uint64_t item) const {
  auto it = counters_.find(item);
  return it == counters_.end() ? min_count_ : it->second;
}

std::vector<WeightedItem> SpaceSaving::List() const {
  std::vector<WeightedItem> out;
  out.reserve(counters_.size());
  for (const auto& [item, c] : counters_) {
    out.push_back({item, double(c)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.estimate > b.estimate;
  });
  return out;
}

uint64_t SpaceSaving::SpaceBits(uint64_t universe) const {
  uint64_t bits = 0;
  for (const auto& [item, c] : counters_) {
    bits += wbs::BitsForUniverse(universe) + wbs::BitsForValue(c);
  }
  return bits;
}

}  // namespace wbs::hh
