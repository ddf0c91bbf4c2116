// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// One applier per cell. A producer parked at an inflight valve applies
// queued sub-batches beside the workers, so a cell's batches may run on
// different threads in turn — never on two at once, and always in dispatch
// order. A probe sketch rides in every cell's sketch group and records, per
// cell, applies that overlap, publication clones (MergeFrom of the live
// instance) that overlap an apply, and the order of the batches the cell
// sees. The real sketches beside it must answer exactly as an inline
// (num_threads = 0) replay of the same batches.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "stream/updates.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

/// Batch b carries the items [b * kItemsPerBatch, (b + 1) * kItemsPerBatch),
/// each twice, so any update of a sub-batch names its batch.
constexpr uint64_t kItemsPerBatch = 64;
constexpr size_t kBatches = 96;
/// Time the probe spends in every apply: the appliers are the slower side,
/// so the producer parks at the valve with sub-batches queued.
constexpr auto kApplyTime = std::chrono::microseconds(40);

/// What the probe saw of one cell.
struct CellRecord {
  std::atomic<int> applying{0};
  std::atomic<int> cloning{0};
  std::atomic<uint64_t> apply_overlaps{0};
  std::atomic<uint64_t> clone_overlaps{0};
  std::mutex mu;
  std::vector<uint64_t> batches;  ///< batch numbers in apply order
};

/// Records keyed by the instance's shard seed: a cell's live instance and
/// its publication clones share one; query-side merge targets (the merge
/// seed) get their own.
class ProbeLog {
 public:
  CellRecord* For(uint64_t shard_seed) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& record = cells_[shard_seed];
    if (record == nullptr) record = std::make_unique<CellRecord>();
    return record.get();
  }
  /// Call only when no probe instance is alive.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.clear();
  }
  std::vector<CellRecord*> Cells() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CellRecord*> out;
    for (auto& [seed, record] : cells_) out.push_back(record.get());
    return out;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<CellRecord>> cells_;
};

ProbeLog& Log() {
  static ProbeLog* log = new ProbeLog();
  return *log;
}

class ApplierProbe final : public Sketch {
 public:
  explicit ApplierProbe(const SketchConfig& cfg)
      : record_(Log().For(cfg.shard_seed)) {}

  const std::string& name() const override {
    static const std::string kName = "applier_probe";
    return kName;
  }
  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.delta != 0) ++updates_;
    return Status::OK();
  }
  Status ApplyBatch(const UpdateBatch& batch) override {
    if (record_->applying.fetch_add(1) != 0) ++record_->apply_overlaps;
    if (record_->cloning.load() != 0) ++record_->clone_overlaps;
    if (batch.size > 0) {
      std::lock_guard<std::mutex> lock(record_->mu);
      record_->batches.push_back(batch.data[0].item / kItemsPerBatch);
    }
    const auto until = std::chrono::steady_clock::now() + kApplyTime;
    while (std::chrono::steady_clock::now() < until) {
    }
    for (size_t i = 0; i < batch.size; ++i) {
      if (batch.data[i].delta != 0) ++updates_;
    }
    if (record_->cloning.load() != 0) ++record_->clone_overlaps;
    record_->applying.fetch_sub(1);
    return Status::OK();
  }
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name();
    s.has_scalar = true;
    s.scalar = double(updates_);
    s.updates = updates_;
    return s;
  }
  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const ApplierProbe*>(&other);
    if (o == nullptr) return Status::InvalidArgument("probe: type mismatch");
    // Only a publication clone merges an instance of its own cell.
    const bool clone = o->record_ == record_;
    if (clone) {
      record_->cloning.fetch_add(1);
      if (record_->applying.load() != 0) ++record_->clone_overlaps;
    }
    updates_ += o->updates_;
    if (clone) record_->cloning.fetch_sub(1);
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  CellRecord* const record_;
  uint64_t updates_ = 0;
};

bool RegisterProbe() {
  static bool once = [] {
    return SketchRegistry::Global()
        .Register("applier_probe",
                  [](const SketchConfig& cfg) {
                    return std::make_unique<ApplierProbe>(cfg);
                  },
                  SketchFamily::kScalarEstimate)
        .ok();
  }();
  return once;
}

SketchConfig ProbeConfig() {
  return SketchConfig{}.WithUniverse(uint64_t{1} << 14).WithSeed(29);
}

stream::TurnstileStream Batch(size_t b) {
  stream::TurnstileStream batch;
  for (uint64_t rep = 0; rep < 2; ++rep) {
    for (uint64_t j = 0; j < kItemsPerBatch; ++j) {
      batch.push_back({b * kItemsPerBatch + j, 1});
    }
  }
  return batch;
}

std::unique_ptr<Client> MakeProbeClient(const std::vector<std::string>& group,
                                        size_t threads, size_t inflight) {
  EXPECT_TRUE(RegisterProbe());
  ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = threads;
  opts.ingest.max_inflight_tickets = inflight;
  opts.ingest.sketches = {"applier_probe"};
  opts.ingest.sketches.insert(opts.ingest.sketches.end(), group.begin(),
                              group.end());
  opts.ingest.config = ProbeConfig();
  // Small sub-batches stay under the publication threshold, so cells also
  // publish at idle hints, where a clone could meet an apply.
  opts.ingest.snapshot_min_updates = 4096;
  // The probe has no wire format: it lives in process.
  opts.ingest.backend = InProcessBackendFactory();
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Every sketch's merged summary after Finish.
std::vector<SketchSummary> Answers(Client& client) {
  std::vector<SketchSummary> out;
  for (const std::string& name : client.sketch_names()) {
    auto summary = client.RawSummary(client.Handle(name).value());
    EXPECT_TRUE(summary.ok()) << name << ": " << summary.status().ToString();
    out.push_back(summary.ok() ? summary.value() : SketchSummary{});
  }
  return out;
}

void ExpectSameAnswers(const std::vector<SketchSummary>& got,
                       const std::vector<SketchSummary>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].sketch);
    EXPECT_EQ(got[i].scalar, want[i].scalar);
    EXPECT_EQ(got[i].updates, want[i].updates);
    ASSERT_EQ(got[i].items.size(), want[i].items.size());
    for (size_t k = 0; k < got[i].items.size(); ++k) {
      EXPECT_EQ(got[i].items[k].item, want[i].items[k].item);
      EXPECT_EQ(got[i].items[k].estimate, want[i].items[k].estimate);
    }
  }
}

/// Runs kBatches blocking submissions (or TrySubmit retries) from one
/// producer, then checks the probe's records and returns the answers and
/// the session's valve_applies_total.
struct RunResult {
  std::vector<SketchSummary> answers;
  uint64_t valve_applies = 0;
};

RunResult RunAndCheck(const std::vector<std::string>& group, size_t threads,
                      size_t inflight, bool try_submit) {
  Log().Clear();
  RunResult result;
  {
    auto client = MakeProbeClient(group, threads, inflight);
    for (size_t b = 0; b < kBatches; ++b) {
      const stream::TurnstileStream batch = Batch(b);
      if (!try_submit) {
        EXPECT_TRUE(SubmitAll(*client, batch).ok());
        continue;
      }
      for (;;) {
        auto t = TrySubmitAll(*client, batch);
        if (t.ok()) break;
        EXPECT_EQ(t.status().code(), Status::Code::kResourceExhausted);
        std::this_thread::yield();
      }
    }
    EXPECT_TRUE(client->Finish().ok());
    result.answers = Answers(*client);
    result.valve_applies =
        client->Metrics().Value("engine.session.0.valve_applies_total");
    EXPECT_EQ(result.answers[0].updates, kBatches * 2 * kItemsPerBatch);
  }
  size_t applied = 0;
  for (CellRecord* cell : Log().Cells()) {
    EXPECT_EQ(cell->apply_overlaps.load(), 0u) << "two appliers in one cell";
    EXPECT_EQ(cell->clone_overlaps.load(), 0u)
        << "a publication clone overlapped an apply";
    for (size_t k = 1; k < cell->batches.size(); ++k) {
      EXPECT_LT(cell->batches[k - 1], cell->batches[k])
          << "cell saw batches out of dispatch order";
    }
    applied += cell->batches.size();
  }
  EXPECT_GE(applied, kBatches);
  Log().Clear();
  return result;
}

std::vector<SketchSummary> InlineAnswers(const std::vector<std::string>& group) {
  Log().Clear();
  std::vector<SketchSummary> answers;
  {
    auto client = MakeProbeClient(group, /*threads=*/0, /*inflight=*/1);
    for (size_t b = 0; b < kBatches; ++b) {
      EXPECT_TRUE(SubmitAll(*client, Batch(b)).ok());
    }
    EXPECT_TRUE(client->Finish().ok());
    answers = Answers(*client);
  }
  Log().Clear();
  return answers;
}

void CheckGroup(const std::vector<std::string>& group) {
  const std::vector<SketchSummary> want = InlineAnswers(group);
  for (size_t threads : {1, 2}) {
    for (size_t inflight = 1; inflight <= 4; ++inflight) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", inflight " +
                   std::to_string(inflight));
      const RunResult run = RunAndCheck(group, threads, inflight, false);
      EXPECT_GT(run.valve_applies, 0u) << "the parked producer never applied";
      ExpectSameAnswers(run.answers, want);
    }
  }
}

TEST(OneApplierTest, LinearGroupMatchesInlineReplay) {
  CheckGroup({"ams_f2", "sis_l0", "misra_gries"});
}

TEST(OneApplierTest, SamplingGroupMatchesInlineReplay) {
  CheckGroup({"robust_hh", "crhf_hh"});
}

TEST(OneApplierTest, TrySubmitNeverApplies) {
  const std::vector<std::string> group = {"ams_f2"};
  const std::vector<SketchSummary> want = InlineAnswers(group);
  const RunResult run = RunAndCheck(group, /*threads=*/2, /*inflight=*/1,
                                    /*try_submit=*/true);
  EXPECT_EQ(run.valve_applies, 0u);
  ExpectSameAnswers(run.answers, want);
}

}  // namespace
}  // namespace wbs::engine
