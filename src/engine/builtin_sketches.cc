// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The built-in engine wrappers around the library's streaming algorithms.
//
// Merge semantics per family (see src/engine/README.md):
//   misra_gries    state merge (mergeable summaries, deterministic bound)
//   ams_f2         state merge (linear; bit-identical to single-instance)
//   sis_l0         state merge (linear; bit-identical to single-instance)
//   rank_decision  state merge (linear; bit-identical to single-instance)
//   robust_hh      answer merge (candidate-list union; exact under the
//   crhf_hh        ingestor's universe partitioning)
//
// Shared randomness (sign matrices, random oracles) derives from
// SketchConfig::seed so shard copies agree; private randomness (sampling
// tapes) derives from SketchConfig::shard_seed so shards sample
// independently but reproducibly.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/modmath.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/random_oracle.h"
#include "distinct/l0_estimator.h"
#include "engine/registry.h"
#include "engine/sketch.h"
#include "engine/wire.h"
#include "heavyhitters/crhf_hh.h"
#include "heavyhitters/misra_gries.h"
#include "heavyhitters/robust_hh.h"
#include "linalg/rank_sketch.h"
#include "moments/ams.h"

namespace wbs::engine {
namespace {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t s = seed ^ salt;
  return SplitMix64(&s);
}

constexpr uint64_t kAmsSalt = 0xa35f2000a35f2000ULL;
constexpr uint64_t kRobustSalt = 0x20b05700720b0577ULL;
constexpr uint64_t kCrhfSalt = 0xc12f00c12f00c12fULL;
constexpr uint64_t kL0OracleDomain = 0x10e57;
constexpr uint64_t kRankOracleDomain = 0x2a4c;

// Sampling sketches replay a weighted update as delta unit updates (a
// Bernoulli sample of w units is not one weighted add). Cap the expansion
// so a single adversarial delta cannot stall a worker thread forever.
constexpr int64_t kMaxSamplingDeltaExpansion = int64_t{1} << 20;

/// The sampling wrappers' per-update contract: insertion-only, and at most
/// kMaxSamplingDeltaExpansion units per weighted delta.
Status CheckSamplingDelta(const std::string& name, int64_t delta) {
  if (delta < 0) return Status::InvalidArgument(name + " is insertion-only");
  if (delta > kMaxSamplingDeltaExpansion) {
    return Status::InvalidArgument(
        name + ": weighted delta exceeds the unit-expansion cap");
  }
  return Status::OK();
}

// Every builtin wire payload opens with the registry name and a per-family
// state-version byte, so a peer can reject a foreign sketch or a layout it
// does not speak before touching any state.
constexpr uint8_t kStateVersion = 1;

/// Shared wrapper plumbing: name, effective-update accounting, and a
/// first-seen-order batch aggregator for weight-equivalent sketches.
class SketchBase : public Sketch {
 public:
  explicit SketchBase(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

 protected:
  /// Emits the common payload header.
  void PutStateHeader(wire::Writer& w) const {
    w.Str(name_);
    w.U8(kStateVersion);
  }

  /// Consumes and validates the common payload header.
  Status CheckStateHeader(wire::Reader& r) const {
    std::string_view got_name;
    uint8_t version = 0;
    if (Status s = r.Str(&got_name); !s.ok()) return s;
    if (got_name != name_) {
      return Status::InvalidArgument(name_ + ": state is for sketch \"" +
                                     std::string(got_name) + "\"");
    }
    if (Status s = r.U8(&version); !s.ok()) return s;
    if (version != kStateVersion) {
      return Status::InvalidArgument(
          name_ + ": unsupported state version " +
          std::to_string(int(version)));
    }
    return Status::OK();
  }
  /// The aggregated form of a batch: duplicate items combined in
  /// first-occurrence order. Only valid for sketches where one weighted
  /// update is equivalent to the corresponding run of unit updates.
  struct AggregatedView {
    const stream::TurnstileUpdate* data;
    size_t size;
    uint64_t effective;  ///< nonzero-delta raw updates represented
    bool has_negative;   ///< any raw delta < 0
  };

  /// Returns the batch's shared pre-aggregation when the ingestor attached
  /// one, otherwise aggregates locally into scratch_.
  AggregatedView GetAggregated(const UpdateBatch& batch) {
    if (batch.aggregated != nullptr) {
      return {batch.aggregated, batch.aggregated_size, batch.effective_updates,
              batch.has_negative_delta};
    }
    auto [effective, has_negative] =
        AggregateUpdates(batch.data, batch.size, &scratch_, &index_);
    return {scratch_.data(), scratch_.size(), effective, has_negative};
  }

  std::string name_;
  uint64_t updates_applied_ = 0;
  std::vector<stream::TurnstileUpdate> scratch_;
  FlatItemIndex index_;
};

/// Answer-level merge accumulator for sampling sketches: sums candidate
/// estimates item-wise across shard summaries. Because the ingestor assigns
/// each item to exactly one shard, the union *is* the global candidate list.
struct AnswerAccumulator {
  bool active = false;
  uint64_t updates = 0;
  std::map<uint64_t, double> estimates;  // ordered => deterministic output

  void Fold(const SketchSummary& s) {
    active = true;
    updates += s.updates;
    for (const auto& wi : s.items) estimates[wi.item] += wi.estimate;
  }

  std::vector<hh::WeightedItem> Items() const {
    std::vector<hh::WeightedItem> out;
    out.reserve(estimates.size());
    for (const auto& [item, est] : estimates) out.push_back({item, est});
    return out;
  }
};

/// Answer-level wire state shared by the sampling heavy hitters: the
/// candidate list with exact f64 estimates plus the update count. Sampling
/// state (tapes, Morris clocks) never crosses the boundary — a snapshot is
/// an answer, exactly like the in-process clone's merge accumulator.
void SerializeAnswerState(const SketchSummary& summary, wire::Writer& w) {
  w.U64(summary.updates);
  w.U64(summary.items.size());
  for (const auto& wi : summary.items) {
    w.U64(wi.item);
    w.F64(wi.estimate);
  }
}

/// The sampling families' summary in every life stage: a pure live sampler
/// (no accumulator), a pure merge accumulator (fresh target / snapshot
/// clone, no updates), or the post-handoff hybrid — frozen prefix answer
/// folded with the live suffix sample.
SketchSummary SamplingSummary(const std::string& name,
                              const AnswerAccumulator& merged,
                              uint64_t updates_applied,
                              std::vector<hh::WeightedItem> live_items) {
  SketchSummary s;
  s.sketch = name;
  if (merged.active && updates_applied == 0) {
    s.items = merged.Items();
    s.updates = merged.updates;
  } else if (!merged.active) {
    s.items = std::move(live_items);
    s.updates = updates_applied;
  } else {
    AnswerAccumulator combined = merged;
    SketchSummary live;
    live.items = std::move(live_items);
    live.updates = updates_applied;
    combined.Fold(live);
    s.items = combined.Items();
    s.updates = combined.updates;
  }
  s.SortItems();
  return s;
}

Status DeserializeAnswerState(const std::string& name, wire::Reader& r,
                              AnswerAccumulator* out) {
  uint64_t updates = 0, count = 0;
  if (Status s = r.U64(&updates); !s.ok()) return s;
  if (Status s = r.U64(&count); !s.ok()) return s;
  std::map<uint64_t, double> estimates;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t item = 0;
    double estimate = 0;
    if (Status s = r.U64(&item); !s.ok()) return s;
    if (Status s = r.F64(&estimate); !s.ok()) return s;
    if (!estimates.emplace(item, estimate).second) {
      return Status::InvalidArgument(name + ": duplicate candidate item");
    }
  }
  out->active = true;
  out->updates = updates;
  out->estimates = std::move(estimates);
  return Status::OK();
}

// ------------------------------------------------------------ misra_gries --

class MisraGriesSketch final : public SketchBase {
 public:
  explicit MisraGriesSketch(const SketchConfig& cfg)
      : SketchBase("misra_gries"), cfg_(cfg), mg_(cfg.misra_gries.counters) {}

  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.delta < 0) {
      return Status::InvalidArgument("misra_gries is insertion-only");
    }
    if (u.item >= cfg_.universe) {
      return Status::OutOfRange("misra_gries: item out of universe");
    }
    if (u.delta == 0) return Status::OK();
    mg_.Add(u.item, uint64_t(u.delta));
    ++updates_applied_;
    return Status::OK();
  }

  Status ApplyBatch(const UpdateBatch& batch) override {
    const AggregatedView agg = GetAggregated(batch);
    if (agg.has_negative) {
      return Status::InvalidArgument("misra_gries is insertion-only");
    }
    for (size_t i = 0; i < agg.size; ++i) {
      const auto& u = agg.data[i];
      if (u.delta == 0) continue;
      if (u.item >= cfg_.universe) {
        return Status::OutOfRange("misra_gries: item out of universe");
      }
      mg_.Add(u.item, uint64_t(u.delta));
    }
    updates_applied_ += agg.effective;
    return Status::OK();
  }

  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    s.items = mg_.List();
    s.updates = updates_applied_;
    s.SortItems();
    return s;
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const MisraGriesSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("misra_gries: merge type mismatch");
    }
    Status s = mg_.MergeFrom(o->mg_);
    if (!s.ok()) return s;
    updates_applied_ += o->updates_applied_;
    return Status::OK();
  }

  /// State: k, updates, processed weight, and the exact uint64 counters,
  /// item-ascending (CounterEntries() order).
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    w.U64(mg_.k());
    w.U64(updates_applied_);
    w.U64(mg_.processed());
    const auto entries = mg_.CounterEntries();
    w.U64(entries.size());
    for (const auto& [item, c] : entries) {
      w.U64(item);
      w.U64(c);
    }
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    uint64_t k = 0, updates = 0, processed = 0, count = 0;
    if (Status s = r.U64(&k); !s.ok()) return s;
    if (k != mg_.k()) {
      return Status::InvalidArgument("misra_gries: counter capacity mismatch");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    if (Status s = r.U64(&processed); !s.ok()) return s;
    if (Status s = r.U64(&count); !s.ok()) return s;
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    if (count > k) {
      return Status::InvalidArgument("misra_gries: more entries than k");
    }
    entries.reserve(size_t(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t item = 0, c = 0;
      if (Status s = r.U64(&item); !s.ok()) return s;
      if (Status s = r.U64(&c); !s.ok()) return s;
      if (item >= cfg_.universe) {
        return Status::OutOfRange("misra_gries: item out of universe");
      }
      entries.emplace_back(item, c);
    }
    if (Status s = mg_.RestoreState(processed, entries); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return mg_.SpaceBits(cfg_.universe); }

 private:
  SketchConfig cfg_;
  hh::MisraGries mg_;
};

// ----------------------------------------------------------------- ams_f2 --

class AmsF2EngineSketch final : public SketchBase {
 public:
  explicit AmsF2EngineSketch(const SketchConfig& cfg)
      : SketchBase("ams_f2"),
        tape_(MixSeed(cfg.seed, kAmsSalt)),
        ams_(cfg.universe, cfg.ams.rows, &tape_) {
    tape_.set_logging(false);  // serving engine, not the game harness
  }

  Status Update(const stream::TurnstileUpdate& u) override {
    Status s = ams_.Update(u);
    if (s.ok() && u.delta != 0) ++updates_applied_;
    return s;
  }

  Status ApplyBatch(const UpdateBatch& batch) override {
    const AggregatedView agg = GetAggregated(batch);
    // Row-major batched kernel: per-item sign mixes computed once, each
    // counter register-resident across the aggregated run.
    Status s = ams_.ApplyRun(agg.data, agg.size);
    if (!s.ok()) return s;
    updates_applied_ += agg.effective;
    return Status::OK();
  }

  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    s.has_scalar = true;
    s.scalar = ams_.Query();
    s.updates = updates_applied_;
    return s;
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const AmsF2EngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("ams_f2: merge type mismatch");
    }
    Status s = ams_.MergeFrom(o->ams_);
    if (!s.ok()) return s;
    updates_applied_ += o->updates_applied_;
    return Status::OK();
  }

  Status UnmergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const AmsF2EngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("ams_f2: unmerge type mismatch");
    }
    Status s = ams_.UnmergeFrom(o->ams_);
    if (!s.ok()) return s;
    updates_applied_ -= o->updates_applied_;
    return Status::OK();
  }

  /// State: the sign-seed fingerprint (shared randomness must agree or the
  /// counters mean nothing) plus the raw counter vector.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& counters = ams_.counters();
    w.Reserve(8 * (3 + counters.size()));
    w.U64(ams_.sign_seed());
    w.U64(updates_applied_);
    w.U64(counters.size());
    w.I64s(counters.data(), counters.size());
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    uint64_t sign_seed = 0, updates = 0, rows = 0;
    if (Status s = r.U64(&sign_seed); !s.ok()) return s;
    if (sign_seed != ams_.sign_seed()) {
      return Status::FailedPrecondition(
          "ams_f2: sign matrix mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    if (Status s = r.U64(&rows); !s.ok()) return s;
    if (rows != ams_.rows()) {
      return Status::InvalidArgument("ams_f2: row count mismatch");
    }
    std::vector<int64_t> counters(static_cast<size_t>(rows));
    if (Status s = r.I64s(counters.data(), counters.size()); !s.ok()) {
      return s;
    }
    if (Status s = ams_.RestoreCounters(counters); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return ams_.SpaceBits(); }

 private:
  wbs::RandomTape tape_;
  moments::AmsF2Sketch ams_;
};

// ----------------------------------------------------------------- sis_l0 --

class SisL0EngineSketch final : public SketchBase {
 public:
  explicit SisL0EngineSketch(const SketchConfig& cfg)
      : SketchBase("sis_l0"),
        est_(distinct::SisL0Params::Derive(cfg.universe, cfg.sis_l0.eps,
                                           cfg.sis_l0.c,
                                           cfg.sis_l0.f_inf_bound),
             crypto::RandomOracle(cfg.seed), kL0OracleDomain) {}

  // The oracle-derived A costs one SHA-256 per entry, so the first ingest
  // adopts the process's shared table (a no-op after that). Merge-only
  // targets never ingest: MergeFrom/Query touch only the chunk vectors, so
  // fresh accumulators neither build nor hold one.
  Status Update(const stream::TurnstileUpdate& u) override {
    est_.MaterializeMatrix();
    Status s = est_.Update(u);
    if (s.ok() && u.delta != 0) ++updates_applied_;
    return s;
  }

  Status ApplyBatch(const UpdateBatch& batch) override {
    est_.MaterializeMatrix();
    const AggregatedView agg = GetAggregated(batch);
    for (size_t i = 0; i < agg.size; ++i) {
      if (agg.data[i].delta == 0) continue;
      Status s = est_.Update(agg.data[i]);
      if (!s.ok()) return s;
    }
    updates_applied_ += agg.effective;
    return Status::OK();
  }

  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    s.has_scalar = true;
    s.scalar = est_.Query();
    s.updates = updates_applied_;
    return s;
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const SisL0EngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("sis_l0: merge type mismatch");
    }
    Status s = est_.MergeFrom(o->est_);
    if (!s.ok()) return s;
    updates_applied_ += o->updates_applied_;
    return Status::OK();
  }

  Status UnmergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const SisL0EngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("sis_l0: unmerge type mismatch");
    }
    Status s = est_.UnmergeFrom(o->est_);
    if (!s.ok()) return s;
    updates_applied_ -= o->updates_applied_;
    return Status::OK();
  }

  /// State: derived chunking/modulus parameters (checked, since both sides
  /// re-derive them from the config) plus every chunk's sketch vector, in
  /// the estimator's chunk-major order.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& p = est_.params();
    const auto& state = est_.state();
    w.Reserve(8 * (5 + state.size()));
    w.U64(p.num_chunks);
    w.U64(p.sketch_rows);
    w.U64(p.q);
    w.U64(est_.matrix().oracle().instance_id());
    w.U64(updates_applied_);
    w.U64s(state.data(), state.size());
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    const auto& p = est_.params();
    uint64_t chunks = 0, rows = 0, q = 0, oracle_id = 0, updates = 0;
    if (Status s = r.U64(&chunks); !s.ok()) return s;
    if (Status s = r.U64(&rows); !s.ok()) return s;
    if (Status s = r.U64(&q); !s.ok()) return s;
    if (chunks != p.num_chunks || rows != p.sketch_rows || q != p.q) {
      return Status::InvalidArgument("sis_l0: derived parameter mismatch");
    }
    if (Status s = r.U64(&oracle_id); !s.ok()) return s;
    if (oracle_id != est_.matrix().oracle().instance_id()) {
      return Status::FailedPrecondition(
          "sis_l0: oracle mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    // The dimensions match the config, so the allocation is bounded by it.
    std::vector<uint64_t> state(est_.state().size());
    if (Status s = r.U64s(state.data(), state.size()); !s.ok()) return s;
    if (Status s = est_.RestoreState(std::move(state)); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return est_.SpaceBits(); }

 private:
  distinct::SisL0Estimator est_;
};

// ---------------------------------------------------------- rank_decision --

class RankDecisionEngineSketch final : public SketchBase {
 public:
  explicit RankDecisionEngineSketch(const SketchConfig& cfg)
      : SketchBase("rank_decision"),
        n_(cfg.rank.n),
        sketch_(cfg.rank.n, cfg.rank.k, cfg.rank.q,
                crypto::RandomOracle(cfg.seed), kRankOracleDomain) {}

  /// Items index the n x n matrix row-major: item = row * n + col.
  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.item >= uint64_t(n_) * n_) {
      return Status::OutOfRange("rank_decision: item out of matrix");
    }
    if (u.delta == 0) return Status::OK();
    Status s = sketch_.Update(
        {size_t(u.item / n_), size_t(u.item % n_), u.delta});
    if (s.ok()) ++updates_applied_;
    return s;
  }

  Status ApplyBatch(const UpdateBatch& batch) override {
    const AggregatedView agg = GetAggregated(batch);
    for (size_t i = 0; i < agg.size; ++i) {
      const auto& u = agg.data[i];
      if (u.delta == 0) continue;
      if (u.item >= uint64_t(n_) * n_) {
        return Status::OutOfRange("rank_decision: item out of matrix");
      }
      Status s = sketch_.Update(
          {size_t(u.item / n_), size_t(u.item % n_), u.delta});
      if (!s.ok()) return s;
    }
    updates_applied_ += agg.effective;
    return Status::OK();
  }

  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    s.has_scalar = true;
    s.scalar = sketch_.Query() ? 1.0 : 0.0;
    s.updates = updates_applied_;
    return s;
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const RankDecisionEngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("rank_decision: merge type mismatch");
    }
    Status s = sketch_.MergeFrom(o->sketch_);
    if (!s.ok()) return s;
    updates_applied_ += o->updates_applied_;
    return Status::OK();
  }

  Status UnmergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const RankDecisionEngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("rank_decision: unmerge type mismatch");
    }
    Status s = sketch_.UnmergeFrom(o->sketch_);
    if (!s.ok()) return s;
    updates_applied_ -= o->updates_applied_;
    return Status::OK();
  }

  /// State: (n, k, q) and the oracle fingerprint (H must agree), then the
  /// k x n sketch S row-major.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& m = sketch_.sketch();
    w.Reserve(8 * (5 + m.size()));
    w.U64(sketch_.n());
    w.U64(sketch_.k());
    w.U64(m.q());
    w.U64(sketch_.oracle().instance_id());
    w.U64(updates_applied_);
    w.U64s(m.data(), m.size());
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    uint64_t n = 0, k = 0, q = 0, oracle_id = 0, updates = 0;
    if (Status s = r.U64(&n); !s.ok()) return s;
    if (Status s = r.U64(&k); !s.ok()) return s;
    if (Status s = r.U64(&q); !s.ok()) return s;
    if (n != sketch_.n() || k != sketch_.k() || q != sketch_.sketch().q()) {
      return Status::InvalidArgument("rank_decision: dimension mismatch");
    }
    if (Status s = r.U64(&oracle_id); !s.ok()) return s;
    if (oracle_id != sketch_.oracle().instance_id()) {
      return Status::FailedPrecondition(
          "rank_decision: oracle mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    std::vector<uint64_t> entries(size_t(n) * size_t(k));
    if (Status s = r.U64s(entries.data(), entries.size()); !s.ok()) return s;
    if (Status s = sketch_.RestoreSketch(entries); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return sketch_.SpaceBits(); }

 private:
  size_t n_;
  linalg::RankDecisionSketch sketch_;
};

// -------------------------------------------------- robust_hh / crhf_hh --
//
// Sampling-based heavy hitters: Bernoulli samples are not equivalent to
// weighted adds, so batches are applied update-by-update (the batch still
// amortizes queueing and dispatch). Merging is answer-level and requires a
// fresh target, which the ingestor's merge path always provides.
//
// Shard handoff: sampler internals (tapes, Morris clocks) never cross the
// wire, so a deserialized instance carries its prior substream as a FROZEN
// answer-level accumulator — and keeps ingesting new updates with a fresh
// sampler. Summary() folds the frozen prefix with the live suffix answer,
// which is exactly the paper's mergeable-summary semantics: the retired
// placement's contribution keeps answering forever while new traffic is
// sampled independently. (Engine merge targets and snapshot clones are
// accumulators that simply never receive updates.)

class RobustHhEngineSketch final : public SketchBase {
 public:
  explicit RobustHhEngineSketch(const SketchConfig& cfg)
      : SketchBase("robust_hh"),
        tape_(MixSeed(cfg.shard_seed, kRobustSalt)),
        alg_(cfg.universe, cfg.hh.eps, cfg.hh.delta, &tape_) {
    tape_.set_logging(false);
  }

  Status Update(const stream::TurnstileUpdate& u) override {
    if (Status s = CheckSamplingDelta(name_, u.delta); !s.ok()) return s;
    for (int64_t i = 0; i < u.delta; ++i) {
      Status s = alg_.Update({u.item});
      if (!s.ok()) return s;
    }
    if (u.delta != 0) ++updates_applied_;
    return Status::OK();
  }

  SketchSummary Summary() const override {
    return SamplingSummary(name_, merged_, updates_applied_, alg_.Query());
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const RobustHhEngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("robust_hh: merge type mismatch");
    }
    if (updates_applied_ > 0) {
      return Status::FailedPrecondition(
          "robust_hh: answer-level merge requires a fresh target");
    }
    merged_.Fold(o->Summary());
    return Status::OK();
  }

  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    SerializeAnswerState(Summary(), w);
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    if (updates_applied_ > 0 || merged_.active) {
      return Status::FailedPrecondition(
          "robust_hh: deserialize requires a fresh instance");
    }
    return DeserializeAnswerState(name_, r, &merged_);
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 private:
  wbs::RandomTape tape_;
  hh::RobustL1HeavyHitters alg_;
  AnswerAccumulator merged_;
};

/// The CRHF images of one batch's distinct items, keyed by item: built once
/// per batch (8 items per multi-lane SHA-256 call), then read once per raw
/// update. `index_` maps an item to its position in the dense
/// `items_`/`images_` arrays. Storage is reused across batches.
class CrhfImageTable {
 public:
  /// Rebuilds the table for the items of `entries` (duplicates allowed).
  void Build(const stream::TurnstileUpdate* entries, size_t n,
             const crypto::Sha256Crhf& crhf) {
    index_.Reset(n);
    items_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (index_.emplace(entries[i].item, items_.size()).second) {
        items_.push_back(entries[i].item);
      }
    }
    // Pad to whole 8-lane calls: one costs less than a single scalar hash.
    // Padding lanes repeat the last item and are never looked up.
    if (!items_.empty()) {
      items_.resize((items_.size() + 7) / 8 * 8, items_.back());
    }
    images_.resize(items_.size());
    for (size_t i = 0; i < items_.size(); i += 8) {
      crhf.HashU64x8(&items_[i], &images_[i]);
    }
  }

  /// crhf.HashU64(item): the cached image, or a fresh hash for an item the
  /// table was not built with.
  uint64_t Image(uint64_t item, const crypto::Sha256Crhf& crhf) const {
    const FlatItemIndex::Entry* e = index_.find(item);
    return e != nullptr ? images_[e->second] : crhf.HashU64(item);
  }

 private:
  FlatItemIndex index_;
  std::vector<uint64_t> items_;
  std::vector<uint64_t> images_;
};

class CrhfHhEngineSketch final : public SketchBase {
 public:
  explicit CrhfHhEngineSketch(const SketchConfig& cfg)
      : SketchBase("crhf_hh"),
        tape_(MixSeed(cfg.shard_seed, kCrhfSalt)),
        alg_(cfg.universe, cfg.hh.phi, cfg.hh.eps, cfg.hh.time_budget_t, &tape_) {
    tape_.set_logging(false);
  }

  Status Update(const stream::TurnstileUpdate& u) override {
    if (Status s = CheckSamplingDelta(name_, u.delta); !s.ok()) return s;
    for (int64_t i = 0; i < u.delta; ++i) {
      Status s = alg_.Update({u.item});
      if (!s.ok()) return s;
    }
    if (u.delta != 0) ++updates_applied_;
    return Status::OK();
  }

  /// Batches hash each distinct item once: the items of the batch's
  /// pre-aggregation go through the multi-lane SHA-256 into an image
  /// table, and the raw updates then replay strictly in order, each unit
  /// fed its item's image through UpdateHashed(). Sampling, validation and
  /// the position of any error stay per raw unit, exactly as in the
  /// Update() loop; the CRHF is pure, so hashing ahead cannot change
  /// observable behavior.
  Status ApplyBatch(const UpdateBatch& batch) override {
    const crypto::Sha256Crhf& crhf = alg_.crhf();
    const AggregatedView agg = GetAggregated(batch);
    images_.Build(agg.data, agg.size, crhf);
    for (size_t i = 0; i < batch.size; ++i) {
      const stream::TurnstileUpdate& u = batch.data[i];
      if (Status s = CheckSamplingDelta(name_, u.delta); !s.ok()) return s;
      if (u.delta == 0) continue;
      const uint64_t hashed = images_.Image(u.item, crhf);
      for (int64_t k = 0; k < u.delta; ++k) {
        Status s = alg_.UpdateHashed(u.item, hashed);
        if (!s.ok()) return s;
      }
      ++updates_applied_;
    }
    return Status::OK();
  }

  SketchSummary Summary() const override {
    return SamplingSummary(name_, merged_, updates_applied_, alg_.Query());
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const CrhfHhEngineSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("crhf_hh: merge type mismatch");
    }
    if (updates_applied_ > 0) {
      return Status::FailedPrecondition(
          "crhf_hh: answer-level merge requires a fresh target");
    }
    merged_.Fold(o->Summary());
    return Status::OK();
  }

  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    SerializeAnswerState(Summary(), w);
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    if (updates_applied_ > 0 || merged_.active) {
      return Status::FailedPrecondition(
          "crhf_hh: deserialize requires a fresh instance");
    }
    return DeserializeAnswerState(name_, r, &merged_);
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 private:
  wbs::RandomTape tape_;
  hh::CrhfHeavyHitters alg_;
  AnswerAccumulator merged_;
  CrhfImageTable images_;  // per-batch table; derived from public state
};

// ---------------------------------------------------------- config checks --
//
// A config reaches a factory from a local Client or, decoded from a hello,
// from whoever dialed a tcp host, so nothing upstream bounds it. Each
// family rejects the exponents its algorithm is undefined for and any
// dimension whose allocation passes its cap. The caps sit far above every
// shipped config: the largest sis_l0 one (2^20 universe) holds 6,144 state
// residues and 6,144 matrix entries, the largest ams_f2 one 64 rows.

constexpr uint64_t kMaxUniverse = uint64_t{1} << 62;
constexpr uint64_t kMaxMisraGriesCounters = uint64_t{1} << 20;
constexpr uint64_t kMaxAmsRows = uint64_t{1} << 16;
constexpr uint64_t kMaxSisWords = uint64_t{1} << 22;  ///< state; matrix
constexpr uint64_t kMaxRankEntries = uint64_t{1} << 22;  ///< k x n sketch
/// Smallest hh.eps and hh.phi: 1/eps and 1/phi size counters and tables.
constexpr double kMinHhFraction = 1.0 / double(uint64_t{1} << 20);

/// lo < x < hi, and false for NaN.
bool Inside(double x, double lo, double hi) { return x > lo && x < hi; }

Status CheckUniverse(const SketchConfig& c) {
  if (c.universe > kMaxUniverse) {
    return Status::InvalidArgument("universe above 2^62");
  }
  return Status::OK();
}

Status CheckMisraGries(const SketchConfig& c) {
  if (c.misra_gries.counters < 1 ||
      c.misra_gries.counters > kMaxMisraGriesCounters) {
    return Status::InvalidArgument("counters outside [1, 2^20]");
  }
  return CheckUniverse(c);
}

Status CheckAms(const SketchConfig& c) {
  if (c.ams.rows < 1 || c.ams.rows > kMaxAmsRows) {
    return Status::InvalidArgument("rows outside [1, 2^16]");
  }
  return CheckUniverse(c);
}

Status CheckSisL0(const SketchConfig& c) {
  if (!Inside(c.sis_l0.eps, 0, 1)) {
    return Status::InvalidArgument("eps outside (0, 1)");
  }
  if (!Inside(c.sis_l0.c, 0, 0.5)) {
    return Status::InvalidArgument("c outside (0, 1/2)");
  }
  if (Status s = CheckUniverse(c); !s.ok()) return s;
  const auto p = distinct::SisL0Params::Derive(
      c.universe, c.sis_l0.eps, c.sis_l0.c, c.sis_l0.f_inf_bound);
  // Compared by division (sketch_rows >= 1), so no product can overflow.
  if (p.num_chunks > kMaxSisWords / p.sketch_rows) {
    return Status::InvalidArgument("chunk state above 2^22 residues");
  }
  if (p.chunk_width > kMaxSisWords / p.sketch_rows) {
    return Status::InvalidArgument("sketching matrix above 2^22 entries");
  }
  // 4 * f_inf_bound * chunk_width past the modulus cap, by division.
  constexpr uint64_t kCap = distinct::SisL0Params::kMaxModulusTarget;
  if (p.beta_inf > kCap / 4 / p.chunk_width) {
    return Status::InvalidArgument(
        "4 * f_inf_bound * chunk width above the 2^61 modulus cap");
  }
  return Status::OK();
}

Status CheckRank(const SketchConfig& c) {
  if (c.rank.k < 1 || c.rank.k > c.rank.n) {
    return Status::InvalidArgument("k outside [1, n]");
  }
  if (c.rank.n > kMaxRankEntries / c.rank.k) {
    return Status::InvalidArgument("k x n sketch above 2^22 entries");
  }
  return BarrettQ::Make(c.rank.q).status();
}

Status CheckHeavyHitter(const SketchConfig& c) {
  if (!(c.hh.eps >= kMinHhFraction && c.hh.eps < 1)) {
    return Status::InvalidArgument("hh.eps outside [2^-20, 1)");
  }
  if (!Inside(c.hh.delta, 0, 1)) {
    return Status::InvalidArgument("hh.delta outside (0, 1)");
  }
  return CheckUniverse(c);
}

Status CheckCrhfHh(const SketchConfig& c) {
  if (!(c.hh.phi >= kMinHhFraction && c.hh.phi <= 1)) {
    return Status::InvalidArgument("hh.phi outside [2^-20, 1]");
  }
  return CheckHeavyHitter(c);
}

}  // namespace

void RegisterBuiltinSketches(SketchRegistry* registry) {
  auto must = [](Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "builtin sketch registration failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  };
  must(registry->Register(
      "misra_gries",
      [](const SketchConfig& cfg) {
        return std::make_unique<MisraGriesSketch>(cfg);
      },
      SketchFamily::kHeavyHitter, CheckMisraGries));
  must(registry->Register(
      "ams_f2",
      [](const SketchConfig& cfg) {
        return std::make_unique<AmsF2EngineSketch>(cfg);
      },
      SketchFamily::kScalarEstimate, CheckAms));
  must(registry->Register(
      "sis_l0",
      [](const SketchConfig& cfg) {
        return std::make_unique<SisL0EngineSketch>(cfg);
      },
      SketchFamily::kScalarEstimate, CheckSisL0));
  must(registry->Register(
      "rank_decision",
      [](const SketchConfig& cfg) {
        return std::make_unique<RankDecisionEngineSketch>(cfg);
      },
      SketchFamily::kRankVerdict, CheckRank));
  must(registry->Register(
      "robust_hh",
      [](const SketchConfig& cfg) {
        return std::make_unique<RobustHhEngineSketch>(cfg);
      },
      SketchFamily::kHeavyHitter, CheckHeavyHitter));
  must(registry->Register(
      "crhf_hh",
      [](const SketchConfig& cfg) {
        return std::make_unique<CrhfHhEngineSketch>(cfg);
      },
      SketchFamily::kHeavyHitter, CheckCrhfHh));
}

}  // namespace wbs::engine
