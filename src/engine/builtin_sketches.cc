// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The built-in engine wrappers around the library's streaming algorithms,
// one template per merge kind (see src/engine/README.md):
//
//   StateSketch<Self>     state merge: the other shard's library object
//                         folds into this one's
//     misra_gries         mergeable summaries, deterministic bound
//     ams_f2, sis_l0,     linear: bit-identical to single-instance, and
//     rank_decision       UnmergeFrom subtracts a shard back out
//   SamplingSketch<Alg>   answer merge: candidate-list union, exact under
//     robust_hh, crhf_hh  the ingestor's universe partitioning
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

  /// A merge or unmerge (`op`) whose other side is another family.
  Status TypeMismatch(const char* op) const {
    return Status::InvalidArgument(name_ + ": " + op + " type mismatch");
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

// ------------------------------------------------------------ state merge --

/// The state-merged families. `Self` holds its library object as `alg_`
/// and applies updates to it through Apply (one update) and ApplyRun (a
/// batch's aggregation); this template counts the effective updates they
/// apply and merges by folding the other shard's `alg_` into this one's.
/// When the library object can subtract (the linear families), UnmergeFrom
/// removes a shard's contribution, which lets the merge cache refold only
/// the shards that changed; otherwise it is Unimplemented, as in Sketch.
template <typename Self>
class StateSketch : public SketchBase {
 public:
  using SketchBase::SketchBase;

  Status Update(const stream::TurnstileUpdate& u) final {
    Status s = self().Apply(u);
    if (s.ok() && u.delta != 0) ++updates_applied_;
    return s;
  }

  Status ApplyBatch(const UpdateBatch& batch) final {
    const AggregatedView agg = GetAggregated(batch);
    if (Status s = self().ApplyRun(agg); !s.ok()) return s;
    updates_applied_ += agg.effective;
    return Status::OK();
  }

  Status MergeFrom(const Sketch& other) final {
    const auto* o = dynamic_cast<const Self*>(&other);
    if (o == nullptr) return TypeMismatch("merge");
    if (Status s = self().alg_.MergeFrom(o->alg_); !s.ok()) return s;
    updates_applied_ += o->updates_applied_;
    return Status::OK();
  }

  Status UnmergeFrom(const Sketch& other) final {
    const auto* o = dynamic_cast<const Self*>(&other);
    if (o == nullptr) return TypeMismatch("unmerge");
    if constexpr (requires { self().alg_.UnmergeFrom(o->alg_); }) {
      if (Status s = self().alg_.UnmergeFrom(o->alg_); !s.ok()) return s;
      updates_applied_ -= o->updates_applied_;
      return Status::OK();
    } else {
      return Sketch::UnmergeFrom(other);
    }
  }

 protected:
  /// The answer of the scalar families: F2, L0, or the rank verdict as 0/1.
  SketchSummary ScalarSummary(double value) const {
    SketchSummary s;
    s.sketch = name_;
    s.has_scalar = true;
    s.scalar = value;
    s.updates = updates_applied_;
    return s;
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }
};

// ------------------------------------------------------------ misra_gries --

class MisraGriesSketch final : public StateSketch<MisraGriesSketch> {
 public:
  static constexpr char kName[] = "misra_gries";

  explicit MisraGriesSketch(const SketchConfig& cfg)
      : StateSketch(kName),
        universe_(cfg.universe),
        alg_(cfg.misra_gries.counters) {}

  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    s.items = alg_.List();
    s.updates = updates_applied_;
    s.SortItems();
    return s;
  }

  /// State: k, updates, processed weight, and the exact uint64 counters,
  /// item-ascending (CounterEntries() order).
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    w.U64(alg_.k());
    w.U64(updates_applied_);
    w.U64(alg_.processed());
    const auto entries = alg_.CounterEntries();
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
    if (k != alg_.k()) {
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
      if (item >= universe_) {
        return Status::OutOfRange("misra_gries: item out of universe");
      }
      entries.emplace_back(item, c);
    }
    if (Status s = alg_.RestoreState(processed, entries); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(universe_); }

 private:
  friend StateSketch;

  Status Apply(const stream::TurnstileUpdate& u) {
    if (u.delta < 0) {
      return Status::InvalidArgument("misra_gries is insertion-only");
    }
    if (u.item >= universe_) {
      return Status::OutOfRange("misra_gries: item out of universe");
    }
    if (u.delta != 0) alg_.Add(u.item, uint64_t(u.delta));
    return Status::OK();
  }

  Status ApplyRun(const AggregatedView& agg) {
    if (agg.has_negative) {
      return Status::InvalidArgument("misra_gries is insertion-only");
    }
    for (size_t i = 0; i < agg.size; ++i) {
      const auto& u = agg.data[i];
      if (u.delta == 0) continue;
      if (u.item >= universe_) {
        return Status::OutOfRange("misra_gries: item out of universe");
      }
      alg_.Add(u.item, uint64_t(u.delta));
    }
    return Status::OK();
  }

  uint64_t universe_;
  hh::MisraGries alg_;
};

// ----------------------------------------------------------------- ams_f2 --

class AmsF2EngineSketch final : public StateSketch<AmsF2EngineSketch> {
 public:
  static constexpr char kName[] = "ams_f2";

  explicit AmsF2EngineSketch(const SketchConfig& cfg)
      : StateSketch(kName),
        tape_(MixSeed(cfg.seed, kAmsSalt)),
        alg_(cfg.universe, cfg.ams.rows, &tape_) {
    tape_.set_logging(false);  // serving engine, not the game harness
  }

  SketchSummary Summary() const override { return ScalarSummary(alg_.Query()); }

  /// State: the sign-seed fingerprint (shared randomness must agree or the
  /// counters mean nothing) plus the raw counter vector.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& counters = alg_.counters();
    w.Reserve(8 * (3 + counters.size()));
    w.U64(alg_.sign_seed());
    w.U64(updates_applied_);
    w.U64(counters.size());
    w.I64s(counters.data(), counters.size());
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    uint64_t sign_seed = 0, updates = 0, rows = 0;
    if (Status s = r.U64(&sign_seed); !s.ok()) return s;
    if (sign_seed != alg_.sign_seed()) {
      return Status::FailedPrecondition(
          "ams_f2: sign matrix mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    if (Status s = r.U64(&rows); !s.ok()) return s;
    if (rows != alg_.rows()) {
      return Status::InvalidArgument("ams_f2: row count mismatch");
    }
    std::vector<int64_t> counters(static_cast<size_t>(rows));
    if (Status s = r.I64s(counters.data(), counters.size()); !s.ok()) {
      return s;
    }
    if (Status s = alg_.RestoreCounters(counters); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 private:
  friend StateSketch;

  Status Apply(const stream::TurnstileUpdate& u) { return alg_.Update(u); }

  /// Row-major batched kernel: per-item sign mixes computed once, each
  /// counter register-resident across the aggregated run.
  Status ApplyRun(const AggregatedView& agg) {
    return alg_.ApplyRun(agg.data, agg.size);
  }

  wbs::RandomTape tape_;
  moments::AmsF2Sketch alg_;
};

// ----------------------------------------------------------------- sis_l0 --

class SisL0EngineSketch final : public StateSketch<SisL0EngineSketch> {
 public:
  static constexpr char kName[] = "sis_l0";

  explicit SisL0EngineSketch(const SketchConfig& cfg)
      : StateSketch(kName),
        alg_(distinct::SisL0Params::Derive(cfg.universe, cfg.sis_l0.eps,
                                           cfg.sis_l0.c,
                                           cfg.sis_l0.f_inf_bound),
             crypto::RandomOracle(cfg.seed), kL0OracleDomain) {}

  SketchSummary Summary() const override { return ScalarSummary(alg_.Query()); }

  /// State: derived chunking/modulus parameters (checked, since both sides
  /// re-derive them from the config) plus every chunk's sketch vector, in
  /// the estimator's chunk-major order.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& p = alg_.params();
    const auto& state = alg_.state();
    w.Reserve(8 * (5 + state.size()));
    w.U64(p.num_chunks);
    w.U64(p.sketch_rows);
    w.U64(p.q);
    w.U64(alg_.matrix().oracle().instance_id());
    w.U64(updates_applied_);
    w.U64s(state.data(), state.size());
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    const auto& p = alg_.params();
    uint64_t chunks = 0, rows = 0, q = 0, oracle_id = 0, updates = 0;
    if (Status s = r.U64(&chunks); !s.ok()) return s;
    if (Status s = r.U64(&rows); !s.ok()) return s;
    if (Status s = r.U64(&q); !s.ok()) return s;
    if (chunks != p.num_chunks || rows != p.sketch_rows || q != p.q) {
      return Status::InvalidArgument("sis_l0: derived parameter mismatch");
    }
    if (Status s = r.U64(&oracle_id); !s.ok()) return s;
    if (oracle_id != alg_.matrix().oracle().instance_id()) {
      return Status::FailedPrecondition(
          "sis_l0: oracle mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    // The dimensions match the config, so the read is bounded by it. The
    // words are range-checked and decoded once, into the estimator itself.
    const size_t n = alg_.state().size();
    std::string_view words;
    if (Status s = r.Bytes(8 * n, &words); !s.ok()) return s;
    if (Status s = alg_.RestoreState(words.data(), n); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 private:
  friend StateSketch;

  // The oracle-derived A costs one SHA-256 per entry, so the first ingest
  // adopts the process's shared table (a no-op after that). Merge-only
  // targets never ingest: MergeFrom/Query touch only the chunk vectors, so
  // fresh accumulators neither build nor hold one.
  Status Apply(const stream::TurnstileUpdate& u) {
    alg_.MaterializeMatrix();
    return alg_.Update(u);
  }

  Status ApplyRun(const AggregatedView& agg) {
    alg_.MaterializeMatrix();
    for (size_t i = 0; i < agg.size; ++i) {
      if (agg.data[i].delta == 0) continue;
      if (Status s = alg_.Update(agg.data[i]); !s.ok()) return s;
    }
    return Status::OK();
  }

  distinct::SisL0Estimator alg_;
};

// ---------------------------------------------------------- rank_decision --

class RankDecisionEngineSketch final
    : public StateSketch<RankDecisionEngineSketch> {
 public:
  static constexpr char kName[] = "rank_decision";

  explicit RankDecisionEngineSketch(const SketchConfig& cfg)
      : StateSketch(kName),
        n_(cfg.rank.n),
        alg_(cfg.rank.n, cfg.rank.k, cfg.rank.q,
             crypto::RandomOracle(cfg.seed), kRankOracleDomain) {}

  SketchSummary Summary() const override {
    return ScalarSummary(alg_.Query() ? 1.0 : 0.0);
  }

  /// State: (n, k, q) and the oracle fingerprint (H must agree), then the
  /// k x n sketch S row-major.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const auto& m = alg_.sketch();
    w.Reserve(8 * (5 + m.size()));
    w.U64(alg_.n());
    w.U64(alg_.k());
    w.U64(m.q());
    w.U64(alg_.oracle().instance_id());
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
    if (n != alg_.n() || k != alg_.k() || q != alg_.sketch().q()) {
      return Status::InvalidArgument("rank_decision: dimension mismatch");
    }
    if (Status s = r.U64(&oracle_id); !s.ok()) return s;
    if (oracle_id != alg_.oracle().instance_id()) {
      return Status::FailedPrecondition(
          "rank_decision: oracle mismatch (different config seed)");
    }
    if (Status s = r.U64(&updates); !s.ok()) return s;
    std::vector<uint64_t> entries(size_t(n) * size_t(k));
    if (Status s = r.U64s(entries.data(), entries.size()); !s.ok()) return s;
    if (Status s = alg_.RestoreSketch(entries); !s.ok()) return s;
    updates_applied_ = updates;
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 private:
  friend StateSketch;

  /// Items index the n x n matrix row-major: item = row * n + col.
  Status Apply(const stream::TurnstileUpdate& u) {
    if (u.item >= uint64_t(n_) * n_) {
      return Status::OutOfRange("rank_decision: item out of matrix");
    }
    if (u.delta == 0) return Status::OK();
    return alg_.Update({size_t(u.item / n_), size_t(u.item % n_), u.delta});
  }

  Status ApplyRun(const AggregatedView& agg) {
    for (size_t i = 0; i < agg.size; ++i) {
      if (agg.data[i].delta == 0) continue;
      if (Status s = Apply(agg.data[i]); !s.ok()) return s;
    }
    return Status::OK();
  }

  size_t n_;
  linalg::RankDecisionSketch alg_;
};

// ----------------------------------------------------------- answer merge --
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

/// The answer-merged families: a library sampler `Alg` drawing from a
/// private tape, plus the accumulator of merged (or handed-off) answers.
template <typename Alg>
class SamplingSketch : public SketchBase {
 public:
  Status Update(const stream::TurnstileUpdate& u) override {
    if (Status s = CheckSamplingDelta(name_, u.delta); !s.ok()) return s;
    for (int64_t i = 0; i < u.delta; ++i) {
      Status s = alg_.Update({u.item});
      if (!s.ok()) return s;
    }
    if (u.delta != 0) ++updates_applied_;
    return Status::OK();
  }

  /// The answer in every life stage: a pure live sampler (no accumulator),
  /// a pure merge accumulator (fresh target / snapshot clone, no updates),
  /// or the post-handoff hybrid — frozen prefix answer folded with the
  /// live suffix sample.
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name_;
    if (!merged_.active) {
      s.items = alg_.Query();
      s.updates = updates_applied_;
    } else if (updates_applied_ == 0) {
      s.items = merged_.Items();
      s.updates = merged_.updates;
    } else {
      AnswerAccumulator combined = merged_;
      SketchSummary live;
      live.items = alg_.Query();
      live.updates = updates_applied_;
      combined.Fold(live);
      s.items = combined.Items();
      s.updates = combined.updates;
    }
    s.SortItems();
    return s;
  }

  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const SamplingSketch*>(&other);
    if (o == nullptr) return TypeMismatch("merge");
    if (updates_applied_ > 0) {
      return Status::FailedPrecondition(
          name_ + ": answer-level merge requires a fresh target");
    }
    merged_.Fold(o->Summary());
    return Status::OK();
  }

  /// A folded answer cannot be taken back out.
  Status UnmergeFrom(const Sketch& other) override {
    if (dynamic_cast<const SamplingSketch*>(&other) == nullptr) {
      return TypeMismatch("unmerge");
    }
    return Sketch::UnmergeFrom(other);
  }

  /// State: the answer, not the sampler — the update count and the
  /// candidate list with exact f64 estimates. Sampling state (tapes,
  /// Morris clocks) never crosses the boundary: a snapshot is an answer,
  /// exactly like the in-process clone's merge accumulator.
  Status SerializeState(wire::Writer& w) const override {
    PutStateHeader(w);
    const SketchSummary summary = Summary();
    w.U64(summary.updates);
    w.U64(summary.items.size());
    for (const auto& wi : summary.items) {
      w.U64(wi.item);
      w.F64(wi.estimate);
    }
    return Status::OK();
  }

  Status DeserializeState(wire::Reader& r) override {
    if (Status s = CheckStateHeader(r); !s.ok()) return s;
    if (updates_applied_ > 0 || merged_.active) {
      return Status::FailedPrecondition(
          name_ + ": deserialize requires a fresh instance");
    }
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
        return Status::InvalidArgument(name_ + ": duplicate candidate item");
      }
    }
    merged_.active = true;
    merged_.updates = updates;
    merged_.estimates = std::move(estimates);
    return Status::OK();
  }

  uint64_t SpaceBits() const override { return alg_.SpaceBits(); }

 protected:
  /// `alg_args` are Alg's constructor arguments up to its tape, which is
  /// this sketch's own, seeded with `tape_seed`.
  template <typename... AlgArgs>
  SamplingSketch(std::string name, uint64_t tape_seed, AlgArgs... alg_args)
      : SketchBase(std::move(name)),
        tape_(tape_seed),
        alg_(alg_args..., &tape_) {
    tape_.set_logging(false);
  }

  wbs::RandomTape tape_;
  Alg alg_;
  AnswerAccumulator merged_;
};

class RobustHhEngineSketch final
    : public SamplingSketch<hh::RobustL1HeavyHitters> {
 public:
  static constexpr char kName[] = "robust_hh";

  explicit RobustHhEngineSketch(const SketchConfig& cfg)
      : SamplingSketch(kName, MixSeed(cfg.shard_seed, kRobustSalt),
                       cfg.universe, cfg.hh.eps, cfg.hh.delta) {}
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

class CrhfHhEngineSketch final : public SamplingSketch<hh::CrhfHeavyHitters> {
 public:
  static constexpr char kName[] = "crhf_hh";

  explicit CrhfHhEngineSketch(const SketchConfig& cfg)
      : SamplingSketch(kName, MixSeed(cfg.shard_seed, kCrhfSalt),
                       cfg.universe, cfg.hh.phi, cfg.hh.eps,
                       cfg.hh.time_budget_t) {}

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

 private:
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

/// Registers T under T::kName; a builtin that cannot register is a bug.
template <typename T>
void RegisterBuiltin(SketchRegistry* registry, SketchFamily family,
                     SketchRegistry::ConfigCheck check) {
  const Status s = registry->Register(
      T::kName,
      [](const SketchConfig& cfg) { return std::make_unique<T>(cfg); },
      family, check);
  if (!s.ok()) {
    std::fprintf(stderr, "builtin sketch registration failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}

}  // namespace

void RegisterBuiltinSketches(SketchRegistry* registry) {
  RegisterBuiltin<MisraGriesSketch>(registry, SketchFamily::kHeavyHitter,
                                    CheckMisraGries);
  RegisterBuiltin<AmsF2EngineSketch>(registry, SketchFamily::kScalarEstimate,
                                     CheckAms);
  RegisterBuiltin<SisL0EngineSketch>(registry, SketchFamily::kScalarEstimate,
                                     CheckSisL0);
  RegisterBuiltin<RankDecisionEngineSketch>(
      registry, SketchFamily::kRankVerdict, CheckRank);
  RegisterBuiltin<RobustHhEngineSketch>(registry, SketchFamily::kHeavyHitter,
                                        CheckHeavyHitter);
  RegisterBuiltin<CrhfHhEngineSketch>(registry, SketchFamily::kHeavyHitter,
                                      CheckCrhfHh);
}

}  // namespace wbs::engine
