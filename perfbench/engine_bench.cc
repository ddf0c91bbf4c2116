// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// engine_bench — the engine's benchmark program. It runs one named workload
// against engine::Client from outside the library, checks the answers
// against a single-instance reference built from the same stream, and
// prints every metric as one JSON object on the last line of stdout.
//
//   engine_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--smoke 1] [--referee-selftest 1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: spans recorded around every Client call, engine counters read
// through Client::Metrics()/TraceSpans(), and a single-threaded replay of
// the workload's own batches through each layer's public functions.
// perfbench/README.md documents every workload and metric.

#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/modmath.h"
#include "common/random.h"
#include "common/simd.h"
#include "distinct/l0_estimator.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "engine/sketch.h"
#include "engine/topology.h"
#include "engine/wire.h"

namespace {

using wbs::Result;
using wbs::Status;
using wbs::engine::Client;
using wbs::engine::ClientOptions;
using wbs::engine::IngestTicket;
using wbs::engine::SketchConfig;
using wbs::engine::SketchHandle;
using wbs::stream::TurnstileUpdate;

constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr uint64_t kEngineSeed = 2025;  // fixed: the workload seed drives inputs only
constexpr size_t kEngineThreads = 2;
constexpr size_t kTopK = 10;
// Open-loop pacing: sleep while the next due time is further than kSpinNs
// away (the producer polling TryWait every kPollSleepNs), spin after.
constexpr int64_t kSpinNs = 100000;
constexpr int64_t kPollSleepNs = 20000;
// Closed-loop record buffers are sized for these rates (about 9x and 10x
// what this engine reaches today); a faster run fails instead of dropping
// records. kQueryTailS covers the querier running on through drain and
// Flush.
constexpr double kMaxClosedUps = 100e6;
constexpr double kMaxClosedQps = 20000;
constexpr double kQueryTailS = 10;

// ------------------------------------------------------------- clocks ------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

// CPU time the hypervisor gave to others while this machine's CPUs wanted
// it (the steal column of /proc/stat), in seconds summed over CPUs.
double StealS() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? double(v[7]) / double(sysconf(_SC_CLK_TCK)) : 0;
}

// Heap bytes handed out and not yet freed, in MiB. Unlike the resident set,
// this does not move with what the allocator caches, with how its
// per-thread arenas fragment, or with when pages are first touched.
#ifndef __GLIBC__
#error "engine_bench reads heap usage through glibc's mallinfo2()"
#endif
double HeapMiB() {
  const struct mallinfo2 mi = mallinfo2();
  return double(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Latency samples keyed by due time. A percentile is taken inside each of
// several equal slices of the measured window and the median of the slices
// is reported, so a stall of the machine moves a few slices, not the run's
// figure. Each slice holds at least kSliceSamples samples (ten beyond the
// p99), and there are at most kMaxSlices.
constexpr size_t kSliceSamples = 1000;
constexpr size_t kMaxSlices = 20;
// Throughput is the median over this many equal slices.
constexpr int kSubWindows = 5;

struct Timed {
  int64_t due;
  double value;
};

std::string Join(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", s.empty() ? "" : ",", x);
    s += buf;
  }
  return s;
}

double WindowedQuantile(const std::vector<Timed>& samples, int64_t t0,
                        int64_t t1, double q, const char* label = nullptr) {
  const int n = int(std::clamp<size_t>(samples.size() / kSliceSamples, 1,
                                       kMaxSlices));
  std::vector<std::vector<double>> slices(n);
  const double width = double(t1 - t0) / n;
  for (const Timed& s : samples) {
    slices[std::clamp(int(double(s.due - t0) / width), 0, n - 1)].push_back(
        s.value);
  }
  std::vector<double> per_slice;
  for (auto& slice : slices) {
    if (!slice.empty()) per_slice.push_back(Quantile(std::move(slice), q));
  }
  if (label != nullptr) std::printf("# slices %s=%s\n", label, Join(per_slice).c_str());
  return Median(per_slice);
}

// ------------------------------------------------------------ generator ----

struct Rng {
  uint64_t state;
  uint64_t Next() { return wbs::SplitMix64(&state); }
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }
};

// Vose alias table for Zipf(alpha) over ranks [0, n): O(1) per sample.
class ZipfAlias {
 public:
  ZipfAlias(uint64_t n, double alpha) : prob_(n), alias_(n) {
    std::vector<double> w(n);
    double total = 0;
    for (uint64_t r = 0; r < n; ++r) {
      w[r] = 1.0 / std::pow(double(r + 1), alpha);
      total += w[r];
    }
    std::vector<uint32_t> small, large;
    for (uint64_t r = 0; r < n; ++r) {
      w[r] = w[r] * double(n) / total;
      (w[r] < 1.0 ? small : large).push_back(uint32_t(r));
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = w[s];
      alias_[s] = l;
      w[l] = (w[l] + w[s]) - 1.0;
      if (w[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (uint32_t r : large) prob_[r] = 1.0, alias_[r] = r;
    for (uint32_t r : small) prob_[r] = 1.0, alias_[r] = r;
  }

  uint64_t Sample(Rng& rng) const {
    const uint64_t x = rng.Next();
    const uint64_t i = ((x >> 32) * prob_.size()) >> 32;
    const double u = (double(x & 0xffffffffu) + 0.5) * 0x1.0p-32;
    return u < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

// A seeded bijection on [0, kUniverse): spreads hot Zipf ranks over the
// universe so they land in different slots and SIS chunks.
struct ItemMap {
  uint64_t mul, add, mask_xor;
  explicit ItemMap(Rng& rng)
      : mul(rng.Next() | 1), add(rng.Next()), mask_xor(rng.Next()) {}
  uint64_t operator()(uint64_t rank) const {
    return ((rank * mul + add) ^ mask_xor) & (kUniverse - 1);
  }
};

enum class Gen { kZipf, kZipfPlanted, kChurn };
enum class QueryKind : uint8_t { kScalar = 0, kTopK = 1, kPoint = 2 };
const char* const kKindNames[] = {"scalar", "topk", "point"};

struct QuerySpec {
  std::string sketch;
  QueryKind kind;
};

// One named workload. offered_ups == 0 is a closed-loop producer;
// query_rate == 0 is a closed-loop querier. max_inflight_tickets (0 = the
// engine default) is the closed loop's window: Submit blocks on the
// engine's ticket valve once that many tickets are outstanding.
struct Spec {
  std::string name;
  std::vector<std::string> sketches;
  size_t shards;
  bool tcp;
  Gen gen;
  size_t batch;
  size_t pool_batches;
  double offered_ups;
  double query_rate;
  size_t max_inflight_tickets;
  std::vector<QuerySpec> queries;
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"ingest_linear",
       {"misra_gries", "ams_f2", "sis_l0"},
       4, false, Gen::kZipf, 8192, 256, 0, 1000, 16,
       {{"ams_f2", QueryKind::kScalar},
        {"sis_l0", QueryKind::kScalar},
        {"misra_gries", QueryKind::kTopK}}},
      {"serve_hh",
       {"misra_gries", "robust_hh", "crhf_hh"},
       4, false, Gen::kZipfPlanted, 1024, 2048, 2e6, 2000, 0,
       {{"misra_gries", QueryKind::kTopK},
        {"robust_hh", QueryKind::kTopK},
        {"crhf_hh", QueryKind::kTopK},
        {"robust_hh", QueryKind::kPoint},
        {"crhf_hh", QueryKind::kPoint},
        {"misra_gries", QueryKind::kPoint}}},
      {"remote_turnstile",
       {"ams_f2", "sis_l0"},
       2, true, Gen::kChurn, 8192, 256, 0, 0, 16,
       {{"ams_f2", QueryKind::kScalar}, {"sis_l0", QueryKind::kScalar}}},
  };
  return specs;
}

// Planted heavy items of serve_hh: two items, each a 25% share of traffic
// (well above the configured phi = 0.2 report threshold).
constexpr size_t kPlanted = 2;
constexpr double kPlantedShare = 0.25;

struct Pool {
  std::vector<std::vector<TurnstileUpdate>> batches;
  std::vector<uint64_t> planted;
};

// The workload fixes the distribution (which items are hot, which are
// planted); the seed draws the stream from it. Were the seed to pick the
// hot items too, it would pick how evenly they spread over shards and
// workers, and runs with different seeds would differ by that draw.
Pool MakePool(const Spec& spec, uint64_t seed, size_t n_batches) {
  uint64_t name_hash = 0xcbf29ce484222325ULL;  // FNV-1a of the workload name
  for (char c : spec.name) name_hash = (name_hash ^ uint8_t(c)) * 0x100000001b3ULL;
  Rng layout{name_hash};
  const ItemMap map(layout);
  Rng rng{seed * 0x9e3779b97f4a7c15ULL + layout.Next()};
  Pool pool;
  pool.batches.resize(n_batches);
  if (spec.gen == Gen::kChurn) {
    // Insert/delete churn over a FIFO of live items: uniform inserts, and
    // deletes of the oldest live item, holding the live set near 32k.
    std::vector<uint64_t> live(size_t{1} << 16);
    size_t head = 0, tail = 0;
    for (auto& b : pool.batches) {
      b.resize(spec.batch);
      for (auto& u : b) {
        const size_t n_live = tail - head;
        const double p_insert = n_live < 32768 ? 0.75 : 0.25;
        if (n_live == 0 || (n_live < live.size() && rng.Unit() < p_insert)) {
          const uint64_t item = rng.Next() & (kUniverse - 1);
          live[tail++ % live.size()] = item;
          u = {item, 1};
        } else {
          u = {live[head++ % live.size()], -1};
        }
      }
    }
    return pool;
  }
  const ZipfAlias zipf(kUniverse, 1.1);
  if (spec.gen == Gen::kZipfPlanted) {
    // Planted ids come from cold Zipf ranks so they are heavy only by plan,
    // and route to shards of different workers (shard s -> worker s mod
    // threads under the initial table), so neither worker carries both.
    auto worker_of = [&](uint64_t item) {
      return wbs::engine::TopologyView::SlotOf(item, spec.shards * 16) %
             spec.shards % kEngineThreads;
    };
    while (pool.planted.size() < kPlanted) {
      const uint64_t item = map(4096 + layout.Next() % (kUniverse - 4096));
      bool clash = false;
      for (uint64_t p : pool.planted) clash |= worker_of(p) == worker_of(item);
      if (!clash) pool.planted.push_back(item);
    }
  }
  for (auto& b : pool.batches) {
    b.resize(spec.batch);
    for (auto& u : b) {
      uint64_t item;
      if (spec.gen == Gen::kZipfPlanted) {
        const double x = rng.Unit();
        item = x < kPlanted * kPlantedShare
                   ? pool.planted[size_t(x / kPlantedShare)]
                   : map(zipf.Sample(rng));
      } else {
        item = map(zipf.Sample(rng));
      }
      u = {item, 1};
    }
  }
  return pool;
}

ClientOptions MakeOptions(const Spec& spec, bool metrics_enabled) {
  ClientOptions o;
  o.ingest.num_shards = spec.shards;
  o.ingest.num_threads = kEngineThreads;
  o.ingest.sketches = spec.sketches;
  o.ingest.config.universe = kUniverse;
  o.ingest.config.seed = kEngineSeed;
  o.ingest.metrics_enabled = metrics_enabled;
  if (spec.max_inflight_tickets > 0) {
    o.ingest.max_inflight_tickets = spec.max_inflight_tickets;
  }
  if (spec.tcp) o.ingest.backend = wbs::engine::TcpBackendFactory();
  return o;
}

wbs::engine::BackendFactory CellFactory(const Spec& spec) {
  return spec.tcp ? wbs::engine::TcpBackendFactory()
                  : wbs::engine::InProcessBackendFactory();
}

// -------------------------------------------------------------- queries ----

struct BoundQuery {
  QuerySpec spec;
  SketchHandle handle;
};

Result<std::vector<BoundQuery>> BindQueries(const Spec& spec,
                                            const Client& client) {
  std::vector<BoundQuery> out;
  for (const QuerySpec& q : spec.queries) {
    auto h = client.Handle(q.sketch);
    if (!h.ok()) return h.status();
    out.push_back({q, h.value()});
  }
  return out;
}

// Runs one typed query; returns the answer's `updates` or an error.
Result<uint64_t> RunQuery(const Client& client, const BoundQuery& q,
                          uint64_t point_item) {
  switch (q.spec.kind) {
    case QueryKind::kScalar: {
      auto r = client.QueryScalar(q.handle);
      if (!r.ok()) return r.status();
      return r.value().updates;
    }
    case QueryKind::kTopK: {
      auto r = client.QueryTopK(q.handle, kTopK);
      if (!r.ok()) return r.status();
      return r.value().updates;
    }
    case QueryKind::kPoint: {
      auto r = client.QueryPoint(q.handle, point_item);
      if (!r.ok()) return r.status();
      return r.value().updates;
    }
  }
  return Status::Internal("unknown query kind");
}

// ---------------------------------------------------------------- spans ----

// One span recorded by the benchmark around a Client call. Kept in memory
// and written out as JSONL when the run ends.
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
  int64_t cpu_ns;  ///< calling thread's CPU time inside the call
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }
  uint64_t Add(const char* name, uint64_t parent, int64_t start, int64_t end,
               int64_t cpu) {
    const uint64_t id = next_id_++;
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({name, id, parent, start, end, cpu});
    }
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void WriteJsonl(const std::string& path) const {
    std::ofstream os(path);
    os.setf(std::ios::fixed);
    os.precision(3);
    for (const Span& s : spans_) {
      os << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent
         << ",\"start_us\":" << double(s.start_ns) / 1e3
         << ",\"duration_us\":" << double(s.end_ns - s.start_ns) / 1e3
         << ",\"cpu_us\":" << double(s.cpu_ns) / 1e3 << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// ----------------------------------------------------------- main phase ----

struct RunCfg {
  double warmup_s = 1.0;
  double seconds = 10;
};

struct BatchRec {
  int64_t due = 0;
  int64_t submit_start = 0;
  int64_t submit_end = 0;
  int64_t done = 0;
  uint64_t seq = 0;
  uint64_t cum = 0;  ///< cumulative effective updates through this batch
  uint64_t span = 0;
};

struct QueryRec {
  int64_t due = 0;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t updates = 0;
  uint8_t kind = 0;
  bool ok = false;
};

struct MainOut {
  std::unique_ptr<Client> client;
  std::string error;  ///< fatal: the phase could not run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> uses;  ///< submissions per pool batch
  uint64_t total_updates = 0;
  bool generator_behind = false;

  // end-to-end
  double ingest_mups = 0;
  double ticket_p50_us = 0, ticket_p90_us = 0, ticket_p99_us = 0;
  double visible_p50_us = 0, visible_p90_us = 0, visible_p99_us = 0;
  double query_p50_us = 0, query_p90_us = 0, query_p99_us = 0;
  double query_kqps = 0;
  double heap_mib = 0;

  // per-layer inputs
  double gen_late_p99_us = 0;
  double host_steal_pct = 0;  ///< share of the window's CPU time stolen
  double drain_ms = 0;
  uint64_t window_updates = 0;
  std::vector<double> submit_us;
  std::vector<double> query_us[3];
  double budget_cpu_ns = 0;  ///< engine CPU in the window (see README)
  double submit_cpu_ns = 0;
  double query_cpu_ns = 0;
  size_t samples_ticket = 0, samples_query = 0;
};

// Runs the measured phase; `spans` non-null makes it the traced run.
MainOut RunMain(const Spec& spec, const Pool& pool, const RunCfg& cfg,
                SpanLog* spans) {
  const bool traced = spans != nullptr;
  MainOut out;
  out.uses.assign(pool.batches.size(), 0);
  const bool open_loop = spec.offered_ups > 0;
  // Record capacity follows the run length (see kMaxClosedUps).
  const double run_s = cfg.warmup_s + cfg.seconds;
  const double batch_rate =
      (open_loop ? spec.offered_ups : kMaxClosedUps) / double(spec.batch);
  const double query_rate = spec.query_rate > 0 ? spec.query_rate : kMaxClosedQps;
  std::vector<BatchRec> recs;
  recs.reserve(size_t(batch_rate * (run_s + 1)) + 1024);
  std::vector<QueryRec> qrecs;
  qrecs.reserve(size_t(query_rate * (run_s + kQueryTailS)) + 1024);

  // Everything the benchmark allocates is allocated by now, so the heap
  // growth from here is the engine's.
  const double heap0 = HeapMiB();
  auto created = Client::Create(MakeOptions(spec, /*metrics_enabled=*/true));
  if (!created.ok()) {
    out.error = "Client::Create: " + created.status().ToString();
    return out;
  }
  out.client = std::move(created).value();
  Client& client = *out.client;
  auto bound = BindQueries(spec, client);
  if (!bound.ok()) {
    out.error = "Handle: " + bound.status().ToString();
    return out;
  }
  const std::vector<BoundQuery> queries = bound.value();

  const int64_t t_start = NowNs();
  const int64_t t_ms = t_start + int64_t(cfg.warmup_s * 1e9);
  const int64_t t_end = t_ms + int64_t(cfg.seconds * 1e9);

  std::atomic<bool> producer_done{false};
  std::atomic<int64_t> producer_done_at{0};
  std::atomic<uint64_t> final_cum{0};
  std::atomic<bool> queries_dropped{false};

  // The producer and querier sleep in steps of 20-100 us; the default
  // 50 us timer slack would blur their wake-ups, and with them the due
  // times they keep and the completions they see. The engine's threads,
  // started by Create above, keep the default.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // ---- querier thread: open loop at query_rate, or closed loop ----
  int64_t q_cpu_a = 0, q_cpu_b = 0;
  std::thread querier([&] {
    const int64_t interval =
        spec.query_rate > 0 ? int64_t(1e9 / spec.query_rate) : 0;
    uint64_t max_seen = 0;
    bool marked_a = false, marked_b = false;
    for (uint64_t j = 0;; ++j) {
      int64_t due = interval > 0 ? t_start + int64_t(j) * interval : NowNs();
      if (interval > 0) {
        // Sleep to just before the due time, then spin, so scheduler
        // wake-up jitter does not land in query latency.
        const int64_t sleep_ns = due - NowNs() - kSpinNs;
        if (sleep_ns > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
        }
        while (NowNs() < due) std::this_thread::yield();
      }
      if (producer_done.load(std::memory_order_acquire)) {
        const uint64_t want = final_cum.load(std::memory_order_acquire);
        if (max_seen >= want ||
            NowNs() - producer_done_at.load() > int64_t(5e9)) {
          break;
        }
      }
      if (!marked_a && due >= t_ms) q_cpu_a = ThreadCpuNs(), marked_a = true;
      if (!marked_b && due >= t_end) q_cpu_b = ThreadCpuNs(), marked_b = true;
      const BoundQuery& q = queries[j % queries.size()];
      const uint64_t item =
          pool.planted.empty() ? 0 : pool.planted[(j / queries.size()) %
                                                  pool.planted.size()];
      QueryRec rec;
      rec.due = due;
      rec.kind = uint8_t(q.spec.kind);
      const int64_t c0 = traced ? ThreadCpuNs() : 0;
      rec.start = NowNs();
      auto r = RunQuery(client, q, item);
      rec.end = NowNs();
      const int64_t c1 = traced ? ThreadCpuNs() : 0;
      rec.ok = r.ok();
      if (r.ok()) {
        rec.updates = r.value();
        max_seen = std::max(max_seen, rec.updates);
      }
      if (spans != nullptr) {
        static const char* const kSpanNames[] = {
            "client.query.scalar", "client.query.topk", "client.query.point"};
        spans->Add(kSpanNames[rec.kind], 0, rec.start, rec.end, c1 - c0);
      }
      if (traced && due >= t_ms && due < t_end) {
        out.query_cpu_ns += double(c1 - c0);
      }
      if (qrecs.size() == qrecs.capacity()) {
        queries_dropped.store(true, std::memory_order_relaxed);
        break;
      }
      qrecs.push_back(rec);
    }
    if (!marked_b) q_cpu_b = ThreadCpuNs();
    if (!marked_a) q_cpu_a = q_cpu_b;
  });

  // The querier records its own spans; the producer keeps a separate log
  // merged at the end so the two threads never share a vector.
  SpanLog producer_spans(spans != nullptr ? recs.capacity() * 2 + 16 : 0);

  // ---- producer (this thread) ----
  size_t next_done = 0;
  uint64_t completed = 0;
  uint64_t cum = 0;
  bool fatal = false;
  auto poll = [&] {
    while (next_done < recs.size()) {
      auto r = client.TryWait(IngestTicket{recs[next_done].seq});
      if (!r.ok()) {
        out.error = "TryWait: " + r.status().ToString();
        fatal = true;
        return;
      }
      if (!r.value()) return;
      const int64_t now = NowNs();
      recs[next_done].done = now;
      completed += pool.batches[0].size();
      ++next_done;
    }
  };

  bool window_open = false;
  uint64_t win_a_done = 0;
  int64_t p_cpu_a = 0, p_cpu_b = 0, proc_cpu_a = 0, proc_cpu_b = 0;
  double steal_a = StealS();
  const int64_t interval =
      open_loop ? int64_t(1e9 * double(spec.batch) / spec.offered_ups) : 0;
  for (uint64_t i = 0; !fatal; ++i) {
    int64_t due;
    if (open_loop) {
      due = t_start + int64_t(i) * interval;
      if (due >= t_end) break;
      // Poll completions in short sleeps, leaving the cores to the engine,
      // and spin only through the last stretch before the due time.
      for (int64_t now = NowNs(); now < due && !fatal; now = NowNs()) {
        poll();
        if (due - now > kSpinNs) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(kPollSleepNs));
        }
      }
    } else {
      due = NowNs();
      if (due >= t_end) break;
    }
    if (!window_open && due >= t_ms) {
      poll();
      window_open = true;
      win_a_done = completed;
      steal_a = StealS();
      if (traced) p_cpu_a = ThreadCpuNs(), proc_cpu_a = ProcessCpuNs();
    }
    if (recs.size() == recs.capacity()) {
      out.error = "batch record capacity exceeded";
      break;
    }
    const size_t p = size_t(i % pool.batches.size());
    const auto& batch = pool.batches[p];
    BatchRec rec;
    rec.due = due;
    const int64_t c0 = traced ? ThreadCpuNs() : 0;
    rec.submit_start = NowNs();
    auto t = client.Submit(batch.data(), batch.size());
    rec.submit_end = NowNs();
    const int64_t c1 = traced ? ThreadCpuNs() : 0;
    ++out.attempted;
    if (!t.ok()) {
      ++out.failed;
      continue;
    }
    ++out.uses[p];
    cum += batch.size();
    rec.seq = t.value().seq;
    rec.cum = cum;
    if (traced) {
      rec.span = producer_spans.Add("client.submit", 0, rec.submit_start,
                                    rec.submit_end, c1 - c0);
    }
    if (traced && due >= t_ms) {
      out.submit_cpu_ns += double(c1 - c0);
      out.submit_us.push_back(double(rec.submit_end - rec.submit_start) / 1e3);
    }
    recs.push_back(rec);
    if (!open_loop) poll();
  }
  poll();
  if (traced) p_cpu_b = ThreadCpuNs(), proc_cpu_b = ProcessCpuNs();
  out.host_steal_pct = (StealS() - steal_a) * 100.0 /
                       (cfg.seconds * double(sysconf(_SC_NPROCESSORS_ONLN)));
  if (!window_open) win_a_done = completed;
  out.window_updates = completed - win_a_done;

  // ---- drain: every ticket complete, then Flush ----
  final_cum.store(cum, std::memory_order_release);
  const int64_t d0 = NowNs();
  while (!fatal && next_done < recs.size()) {
    poll();
    if (NowNs() - d0 > int64_t(60e9)) {
      out.error = "tickets did not complete within 60 s";
      fatal = true;
    }
    std::this_thread::yield();
  }
  Status fs = client.Flush();
  const int64_t d1 = NowNs();
  if (spans != nullptr) producer_spans.Add("client.flush", 0, d0, d1, 0);
  out.drain_ms = double(d1 - d0) / 1e6;
  ++out.attempted;
  if (!fs.ok()) ++out.failed;
  producer_done_at.store(NowNs());
  producer_done.store(true, std::memory_order_release);
  querier.join();
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  // Memory is read once the engine is quiet (every ticket complete, Flush
  // done, no query running): what it holds, not what is in flight.
  out.heap_mib = HeapMiB() - heap0;
  out.total_updates = cum;
  if (queries_dropped.load() && out.error.empty()) {
    out.error = "query record capacity exceeded";
  }

  // ---- derive the end-to-end numbers from the records ----
  // Throughput: updates whose tickets completed inside each slice of the
  // window, per slice; the median slice is reported.
  {
    std::vector<double> slice_updates(kSubWindows, 0);
    const double width = double(t_end - t_ms) / kSubWindows;
    for (const BatchRec& r : recs) {
      if (r.done < t_ms || r.done >= t_end) continue;
      slice_updates[std::min(int(double(r.done - t_ms) / width), kSubWindows - 1)] +=
          double(spec.batch);
    }
    for (double& u : slice_updates) u = u / (width / 1e3);  // updates/us
    std::printf("# slices ingest_mups=%s\n", Join(slice_updates).c_str());
    out.ingest_mups = Median(slice_updates);
  }

  std::vector<Timed> ticket;
  std::vector<double> late;
  for (const BatchRec& r : recs) {
    if (r.due < t_ms || r.due >= t_end) continue;
    ticket.push_back({r.due, double(r.done - r.due) / 1e3});
    late.push_back(double(r.submit_start - r.due) / 1e3);
  }
  out.samples_ticket = ticket.size();
  out.ticket_p50_us = WindowedQuantile(ticket, t_ms, t_end, 0.5, "ticket_p50");
  out.ticket_p90_us = WindowedQuantile(ticket, t_ms, t_end, 0.90, "ticket_p90");
  out.ticket_p99_us = WindowedQuantile(ticket, t_ms, t_end, 0.99, "ticket_p99");
  out.gen_late_p99_us = open_loop ? Quantile(late, 0.99) : 0;
  // The open loop is invalid when the generator itself cannot hold the
  // schedule: its median lateness exceeds one batch interval.
  if (open_loop && Quantile(late, 0.5) > double(interval) / 1e3) {
    out.generator_behind = true;
  }

  // Visibility: the first answer (in completion order) whose `updates`
  // covers the batch's cumulative count.
  std::vector<Timed> visible;
  {
    size_t j = 0;
    uint64_t run_max = 0;
    for (const BatchRec& r : recs) {
      while (j < qrecs.size() && run_max < r.cum) {
        if (qrecs[j].ok) run_max = std::max(run_max, qrecs[j].updates);
        if (run_max >= r.cum) break;
        ++j;
      }
      if (r.due < t_ms || r.due >= t_end) continue;
      ++out.attempted;
      if (run_max < r.cum || j >= qrecs.size()) {
        ++out.failed;  // never became visible
        continue;
      }
      visible.push_back(
          {r.due, double(std::max(qrecs[j].end, r.due) - r.due) / 1e3});
    }
  }
  out.visible_p50_us = WindowedQuantile(visible, t_ms, t_end, 0.5);
  out.visible_p90_us = WindowedQuantile(visible, t_ms, t_end, 0.90, "visible_p90");
  out.visible_p99_us = WindowedQuantile(visible, t_ms, t_end, 0.99, "visible_p99");

  std::vector<Timed> qlat;
  size_t q_window = 0;
  int64_t q_first_due = 0, q_last_end = 0;
  for (const QueryRec& q : qrecs) {
    ++out.attempted;
    if (!q.ok) ++out.failed;
    if (q.due < t_ms || q.due >= t_end) continue;
    if (q_window++ == 0) q_first_due = q.due;
    q_last_end = q.end;
    qlat.push_back({q.due, double(q.end - q.due) / 1e3});
    if (traced) out.query_us[q.kind].push_back(double(q.end - q.start) / 1e3);
  }
  out.samples_query = qlat.size();
  out.query_p50_us = WindowedQuantile(qlat, t_ms, t_end, 0.5);
  out.query_p90_us = WindowedQuantile(qlat, t_ms, t_end, 0.90, "query_p90");
  out.query_p99_us = WindowedQuantile(qlat, t_ms, t_end, 0.99, "query_p99");
  // Completed queries over the span from the first one's due time to the
  // last one's answer.
  out.query_kqps = q_last_end > q_first_due
                       ? double(q_window) / (double(q_last_end - q_first_due) / 1e6)
                       : 0;

  if (traced) {
    out.budget_cpu_ns = double(proc_cpu_b - proc_cpu_a) -
                        double(p_cpu_b - p_cpu_a) - double(q_cpu_b - q_cpu_a) +
                        out.submit_cpu_ns + out.query_cpu_ns;
  }
  if (spans != nullptr) {
    // Re-number the producer's spans into the shared log; a ticket span's
    // parent is the submit span that issued it.
    std::vector<uint64_t> renumber(producer_spans.spans().size() + 2, 0);
    for (const Span& s : producer_spans.spans()) {
      renumber[s.id] = spans->Add(s.name, 0, s.start_ns, s.end_ns, s.cpu_ns);
    }
    for (const BatchRec& r : recs) {
      if (r.done == 0) continue;
      const uint64_t parent = r.span < renumber.size() ? renumber[r.span] : 0;
      spans->Add("client.ticket", parent, r.submit_start, r.done, 0);
    }
  }
  if (fatal && out.error.empty()) out.error = "producer failed";
  return out;
}

// -------------------------------------------------------------- referee ----

// The exact stream the engine saw, rebuilt from the pool and how many times
// each pool batch was submitted.
struct Truth {
  std::vector<int64_t> f;  ///< dense frequency vector over the universe
  uint64_t total = 0;      ///< effective (nonzero-delta) updates
  std::vector<uint64_t> planted;
};

Truth BuildTruth(const Pool& pool, const std::vector<uint64_t>& uses) {
  Truth t;
  t.f.assign(kUniverse, 0);
  for (size_t b = 0; b < pool.batches.size(); ++b) {
    if (uses[b] == 0) continue;
    for (const TurnstileUpdate& u : pool.batches[b]) {
      t.f[u.item] += u.delta * int64_t(uses[b]);
      if (u.delta != 0) t.total += uses[b];
    }
  }
  t.planted = pool.planted;
  return t;
}

bool IsLinear(const std::string& family) {
  return family == "ams_f2" || family == "sis_l0";
}
bool IsSampling(const std::string& family) {
  return family == "robust_hh" || family == "crhf_hh";
}

// Single-instance reference answer of a linear family over `f`. Items are
// unique, so the update list is its own aggregation.
Result<double> ReferenceScalar(const std::string& family,
                               const std::vector<int64_t>& f) {
  SketchConfig cfg;
  cfg.universe = kUniverse;
  cfg.seed = kEngineSeed;
  auto sk = wbs::engine::SketchRegistry::Global().Create(family, cfg);
  if (!sk.ok()) return sk.status();
  std::vector<TurnstileUpdate> ups;
  bool negative = false;
  for (uint64_t i = 0; i < f.size(); ++i) {
    if (f[i] == 0) continue;
    ups.push_back({i, f[i]});
    negative |= f[i] < 0;
  }
  wbs::engine::UpdateBatch batch{ups.data(), ups.size(), ups.data(),
                                 ups.size(), ups.size(), negative};
  Status s = sk.value()->ApplyBatch(batch);
  if (!s.ok()) return s;
  return sk.value()->Summary().scalar;
}

// Check categories, so the self-test can tell which check a perturbation
// tripped.
enum Check { kLinear = 0, kUpdates = 1, kMisraGries = 2, kPlantedHh = 3 };
const char* const kCheckNames[] = {"linear_bit_identity", "updates_count",
                                   "misra_gries_bound", "planted_reported"};

struct Verdict {
  uint64_t checks = 0;
  uint64_t failures[4] = {0, 0, 0, 0};
  std::vector<std::string> messages;
  uint64_t total_failures() const {
    return failures[0] + failures[1] + failures[2] + failures[3];
  }
  void Expect(Check c, bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failures[c];
    if (messages.size() < 8) messages.push_back(what);
  }
};

// Compares the engine's final answers (after Flush) with the truth:
// linear families bit-identical, Misra-Gries within its mergeable-summary
// bound, every planted heavy item reported by the sampling families, and
// every answer covering exactly the submitted updates.
Verdict Referee(const Spec& spec, const Client& client, const Truth& truth) {
  Verdict v;
  for (const std::string& family : spec.sketches) {
    auto h = client.Handle(family);
    if (!h.ok()) {
      v.Expect(kUpdates, false, family + ": no handle");
      continue;
    }
    if (IsLinear(family)) {
      auto got = client.QueryScalar(h.value());
      auto want = ReferenceScalar(family, truth.f);
      const bool ok = got.ok() && want.ok() &&
                      std::memcmp(&got.value().value, &want.value(),
                                  sizeof(double)) == 0;
      v.Expect(kLinear, ok,
               family + ": engine " +
                   (got.ok() ? std::to_string(got.value().value) : "error") +
                   " vs reference " +
                   (want.ok() ? std::to_string(want.value()) : "error"));
      v.Expect(kUpdates, got.ok() && got.value().updates == truth.total,
               family + ": answer does not cover every submitted update");
      continue;
    }
    auto top = client.QueryTopK(h.value(), kTopK);
    v.Expect(kUpdates, top.ok() && top.value().updates == truth.total,
             family + ": answer does not cover every submitted update");
    if (family == "misra_gries") {
      // Never overestimates; underestimates by at most 2m/(k+1) after the
      // shard merge (k = 64 counters, the engine default).
      const double bound = 2.0 * double(truth.total) / 65.0;
      std::vector<uint64_t> items(truth.planted);
      std::vector<std::pair<int64_t, uint64_t>> heavy;
      for (uint64_t i = 0; i < truth.f.size(); ++i) {
        if (truth.f[i] > 0) heavy.push_back({truth.f[i], i});
      }
      const size_t n = std::min<size_t>(20, heavy.size());
      std::partial_sort(heavy.begin(), heavy.begin() + n, heavy.end(),
                        std::greater<>());
      for (size_t i = 0; i < n; ++i) items.push_back(heavy[i].second);
      for (uint64_t item : items) {
        auto p = client.QueryPoint(h.value(), item);
        const double f = double(truth.f[item]);
        const bool ok = p.ok() && p.value().estimate <= f + 1e-9 &&
                        f - p.value().estimate <= bound;
        v.Expect(kMisraGries, ok,
                 "misra_gries: item " + std::to_string(item) + " true " +
                     std::to_string(f) + " estimate " +
                     (p.ok() ? std::to_string(p.value().estimate) : "error"));
      }
    } else if (IsSampling(family)) {
      for (uint64_t item : truth.planted) {
        bool found = false;
        if (top.ok()) {
          for (const auto& wi : top.value().items) found |= wi.item == item;
        }
        v.Expect(kPlantedHh, found,
                 family + ": planted item " + std::to_string(item) +
                     " missing from top-" + std::to_string(kTopK));
      }
    }
  }
  return v;
}

// Referee self-test: each perturbation of the truth must trip the check it
// targets, so a referee that never fails cannot pass.
bool RefereeSelfTest(const Spec& spec, const Client& client,
                     const Truth& truth) {
  bool all_ok = true;
  auto expect_trip = [&](const char* what, const Truth& t, Check c) {
    const Verdict v = Referee(spec, client, t);
    const bool tripped = v.failures[c] > 0;
    std::printf("# selftest %s %s: %s\n", spec.name.c_str(), what,
                tripped ? "rejected (ok)" : "ACCEPTED (referee is blind)");
    all_ok &= tripped;
  };
  const bool has_linear = std::any_of(spec.sketches.begin(),
                                      spec.sketches.end(), IsLinear);
  const bool has_mg = std::find(spec.sketches.begin(), spec.sketches.end(),
                                "misra_gries") != spec.sketches.end();
  if (has_linear) {
    // Zero one nonempty SIS chunk (width 1024 for this universe): moves the
    // AMS counters and drops the L0 count by one.
    Truth t = truth;
    for (uint64_t base = 0; base < kUniverse; base += 1024) {
      bool nonempty = false;
      for (uint64_t i = base; i < base + 1024; ++i) nonempty |= t.f[i] != 0;
      if (!nonempty) continue;
      for (uint64_t i = base; i < base + 1024; ++i) t.f[i] = 0;
      break;
    }
    expect_trip("chunk_dropped", t, kLinear);
  }
  {
    Truth t = truth;
    t.total += 1;
    expect_trip("one_update_missing", t, kUpdates);
  }
  if (has_mg) {
    Truth t = truth;
    uint64_t top = 0;
    for (uint64_t i = 0; i < t.f.size(); ++i) {
      if (t.f[i] > t.f[top]) top = i;
    }
    t.f[top] += int64_t(2.0 * double(t.total) / 65.0) + 2;
    expect_trip("heavy_item_undercounted", t, kMisraGries);
  }
  if (!truth.planted.empty()) {
    Truth t = truth;
    uint64_t cold = 0;
    while (t.f[cold] != 0) ++cold;
    t.planted.push_back(cold);
    expect_trip("phantom_heavy_item", t, kPlantedHh);
  }
  return all_ok;
}

// --------------------------------------------------------------- replay ----
//
// Single-threaded replay of the workload's own batches through each
// layer's public functions, timed from here.

const char* const kFamilies[] = {"misra_gries", "ams_f2", "sis_l0",
                                 "robust_hh", "crhf_hh"};

struct FamilyCost {
  double apply_ns = 0, clone_us = 0, merge_us = 0, unmerge_us = 0;
  double summary_us = 0, serialize_us = 0, deserialize_us = 0;
  double state_bytes = 0, space_bits = 0;
};

struct ReplayOut {
  double slot_of_ns = 0, hash_items_ns = 0, aggregate_ns = 0;
  double ams_row_mix_ns = 0, sis_column_update_ns = 0, sha256_salted8_ns = 0;
  double encode_updates_ns = 0;
  std::map<std::string, FamilyCost> family;
  std::string error;
};

volatile uint64_t g_sink = 0;

// Median over `reps` repetitions of fn(), which returns elapsed ns.
template <typename Fn>
double MedianNs(int reps, Fn fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(double(fn()));
  return Median(v);
}

ReplayOut Replay(const Spec& spec, const Pool& pool, size_t n_batches) {
  ReplayOut out;
  n_batches = std::min(n_batches, pool.batches.size());
  const size_t num_slots = spec.shards * 16;  // IngestorOptions default
  uint64_t n_updates = 0;
  for (size_t b = 0; b < n_batches; ++b) n_updates += pool.batches[b].size();
  const double per_update = 1.0 / double(n_updates);

  // topology: item -> slot
  out.slot_of_ns = per_update * MedianNs(3, [&] {
    const int64_t t0 = NowNs();
    uint64_t acc = 0;
    for (size_t b = 0; b < n_batches; ++b) {
      for (const auto& u : pool.batches[b]) {
        acc += wbs::engine::TopologyView::SlotOf(u.item, num_slots);
      }
    }
    g_sink = acc;
    return NowNs() - t0;
  });

  // simd: the scatter hash kernel
  const auto& k = wbs::simd::Kernels();
  {
    std::vector<uint64_t> items, hashed;
    out.hash_items_ns = per_update * MedianNs(3, [&] {
      int64_t ns = 0;
      for (size_t b = 0; b < n_batches; ++b) {
        const auto& batch = pool.batches[b];
        items.resize(batch.size());
        hashed.resize(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) items[i] = batch[i].item;
        const int64_t t0 = NowNs();
        k.hash_items(items.data(), items.size(), hashed.data());
        ns += NowNs() - t0;
        g_sink = hashed[0];
      }
      return ns;
    });
  }

  // Scatter into per-shard sub-batches exactly like the initial topology
  // (slot -> slot % shards).
  std::vector<std::vector<std::vector<TurnstileUpdate>>> sub(n_batches);
  for (size_t b = 0; b < n_batches; ++b) {
    sub[b].resize(spec.shards);
    for (const auto& u : pool.batches[b]) {
      sub[b][wbs::engine::TopologyView::SlotOf(u.item, num_slots) %
             spec.shards]
          .push_back(u);
    }
  }

  // sketch.h aggregation
  std::vector<std::vector<std::vector<TurnstileUpdate>>> agg(n_batches);
  std::vector<std::vector<std::pair<uint64_t, bool>>> agg_info(n_batches);
  {
    std::unordered_map<uint64_t, size_t> index;
    std::vector<TurnstileUpdate> scratch;
    out.aggregate_ns = per_update * MedianNs(3, [&] {
      const int64_t t0 = NowNs();
      for (size_t b = 0; b < n_batches; ++b) {
        for (const auto& s : sub[b]) {
          g_sink = wbs::engine::AggregateUpdates(s.data(), s.size(), &scratch,
                                                 &index)
                       .first;
        }
      }
      return NowNs() - t0;
    });
    for (size_t b = 0; b < n_batches; ++b) {
      agg[b].resize(spec.shards);
      for (size_t s = 0; s < spec.shards; ++s) {
        agg_info[b].push_back(wbs::engine::AggregateUpdates(
            sub[b][s].data(), sub[b][s].size(), &agg[b][s], &index));
      }
    }
  }

  // sketch apply / clone / merge / unmerge / summary, wire (de)serialize
  SketchConfig base;
  base.universe = kUniverse;
  base.seed = kEngineSeed;
  auto& registry = wbs::engine::SketchRegistry::Global();
  for (const std::string& family : spec.sketches) {
    FamilyCost c;
    std::vector<std::unique_ptr<wbs::engine::Sketch>> shards;
    std::vector<SketchConfig> cfgs;
    for (size_t s = 0; s < spec.shards; ++s) {
      cfgs.push_back(wbs::engine::ShardConfigFor(base, s));
      auto sk = registry.Create(family, cfgs.back());
      if (!sk.ok()) {
        out.error = sk.status().ToString();
        return out;
      }
      shards.push_back(std::move(sk).value());
    }
    int64_t apply_ns = 0;
    for (size_t b = 0; b < n_batches; ++b) {
      for (size_t s = 0; s < spec.shards; ++s) {
        const auto& raw = sub[b][s];
        wbs::engine::UpdateBatch ub{raw.data(),          raw.size(),
                                    agg[b][s].data(),    agg[b][s].size(),
                                    agg_info[b][s].first, agg_info[b][s].second};
        const int64_t t0 = NowNs();
        Status st = shards[s]->ApplyBatch(ub);
        apply_ns += NowNs() - t0;
        if (!st.ok()) {
          out.error = family + " ApplyBatch: " + st.ToString();
          return out;
        }
      }
    }
    c.apply_ns = double(apply_ns) * per_update;

    // Snapshot clone = fresh instance + MergeFrom(live), as the backend
    // publishes it.
    std::vector<std::unique_ptr<wbs::engine::Sketch>> clones(spec.shards);
    c.clone_us = MedianNs(5, [&] {
      int64_t ns = 0;
      for (size_t s = 0; s < spec.shards; ++s) {
        const int64_t t0 = NowNs();
        auto fresh = registry.Create(family, cfgs[s]);
        if (fresh.ok()) (void)fresh.value()->MergeFrom(*shards[s]);
        ns += NowNs() - t0;
        if (fresh.ok()) clones[s] = std::move(fresh).value();
      }
      return ns / int64_t(spec.shards);
    }) / 1e3;

    SketchConfig merge_cfg = base;
    merge_cfg.shard_seed = wbs::engine::MergeSeedFor(base);
    std::unique_ptr<wbs::engine::Sketch> target;
    c.merge_us = MedianNs(5, [&] {
      auto fresh = registry.Create(family, merge_cfg);
      int64_t ns = 0;
      if (!fresh.ok()) return ns;
      target = std::move(fresh).value();
      for (size_t s = 0; s < spec.shards; ++s) {
        const int64_t t0 = NowNs();
        (void)target->MergeFrom(*clones[s]);
        ns += NowNs() - t0;
      }
      return ns / int64_t(spec.shards);
    }) / 1e3;
    if (IsLinear(family) && target != nullptr) {
      c.unmerge_us = MedianNs(5, [&] {
        const int64_t t0 = NowNs();
        (void)target->UnmergeFrom(*clones[0]);
        const int64_t ns = NowNs() - t0;
        (void)target->MergeFrom(*clones[0]);
        return ns;
      }) / 1e3;
    }
    if (target != nullptr) {
      c.summary_us = MedianNs(5, [&] {
        const int64_t t0 = NowNs();
        auto summary = target->Summary();
        g_sink = summary.updates;
        return NowNs() - t0;
      }) / 1e3;
    }
    std::string frame;
    c.serialize_us = MedianNs(5, [&] {
      const int64_t t0 = NowNs();
      auto f = wbs::engine::SerializeSketch(*shards[0]);
      const int64_t ns = NowNs() - t0;
      if (f.ok()) frame = std::move(f).value();
      return ns;
    }) / 1e3;
    c.state_bytes = double(frame.size());
    c.deserialize_us = MedianNs(5, [&] {
      const int64_t t0 = NowNs();
      auto sk = wbs::engine::DeserializeSketch(family, cfgs[0], frame);
      const int64_t ns = NowNs() - t0;
      if (!sk.ok()) out.error = family + " deserialize: " + sk.status().ToString();
      return ns;
    }) / 1e3;
    c.space_bits = double(shards[0]->SpaceBits());
    out.family[family] = c;
  }

  // simd: AMS row mix over each aggregated shard run (48 rows, the default)
  {
    const size_t rows = wbs::engine::AmsOptions{}.rows;
    std::vector<int64_t> counters(rows, 0);
    std::vector<uint64_t> mix;
    std::vector<int64_t> deltas;
    uint64_t n_agg = 0;
    const int64_t ns = int64_t(MedianNs(3, [&] {
      int64_t total = 0;
      n_agg = 0;
      for (size_t b = 0; b < n_batches; ++b) {
        for (const auto& run : agg[b]) {
          mix.resize(run.size());
          deltas.resize(run.size());
          for (size_t i = 0; i < run.size(); ++i) {
            uint64_t s = run[i].item ^ kEngineSeed;
            mix[i] = wbs::SplitMix64(&s);
            deltas[i] = run[i].delta;
          }
          const int64_t t0 = NowNs();
          k.ams_row_mix(counters.data(), rows, mix.data(), deltas.data(),
                        run.size());
          total += NowNs() - t0;
          n_agg += run.size();
        }
      }
      return total;
    }));
    g_sink = uint64_t(counters[0]);
    out.ams_row_mix_ns = n_agg > 0 ? double(ns) / double(n_agg) : 0;
  }

  // simd: SIS column update at this universe's dimensions, one call per
  // aggregated update
  {
    const auto params = wbs::distinct::SisL0Params::Derive(
        kUniverse, 0.5, 0.25, uint64_t{1} << 20);
    const wbs::BarrettQ bq(params.q);
    const size_t n = params.sketch_rows;
    Rng rng{kEngineSeed};
    std::vector<uint64_t> col(n), shoup(n), v(n, 0);
    for (size_t i = 0; i < n; ++i) {
      col[i] = rng.Next() % params.q;
      shoup[i] = uint64_t((wbs::u128(col[i]) << 64) / params.q);
    }
    uint64_t calls = 0;
    const double ns = MedianNs(3, [&] {
      calls = 0;
      const int64_t t0 = NowNs();
      for (size_t b = 0; b < n_batches; ++b) {
        for (const auto& run : agg[b]) {
          for (const auto& u : run) {
            const uint64_t d =
                u.delta >= 0 ? uint64_t(u.delta) % params.q
                             : params.q - (uint64_t(-u.delta) % params.q);
            k.sis_column_update(v.data(), col.data(), shoup.data(), n,
                                d % params.q, bq);
            ++calls;
          }
        }
      }
      return NowNs() - t0;
    });
    g_sink = v[0];
    out.sis_column_update_ns = calls > 0 ? ns / double(calls) : 0;
  }

  // simd: SHA-256 x8 over the workload's items
  {
    uint64_t hashes[8];
    uint64_t calls = 0;
    const double ns = MedianNs(3, [&] {
      calls = 0;
      uint64_t items[8];
      const int64_t t0 = NowNs();
      for (size_t b = 0; b < n_batches; ++b) {
        const auto& batch = pool.batches[b];
        for (size_t i = 0; i + 8 <= batch.size(); i += 8) {
          for (size_t j = 0; j < 8; ++j) items[j] = batch[i + j].item;
          k.sha256_salted8(kEngineSeed, items, hashes);
          ++calls;
        }
      }
      return NowNs() - t0;
    });
    g_sink = hashes[0];
    out.sha256_salted8_ns = calls > 0 ? ns / double(calls) : 0;
  }

  // wire: update-batch encoding, one frame payload per shard sub-batch
  out.encode_updates_ns = per_update * MedianNs(3, [&] {
    int64_t ns = 0;
    for (size_t b = 0; b < n_batches; ++b) {
      for (const auto& s : sub[b]) {
        wbs::engine::wire::Writer w;
        const int64_t t0 = NowNs();
        wbs::engine::wire::EncodeUpdates(s.data(), s.size(), &w);
        ns += NowNs() - t0;
        g_sink = w.size();
      }
    }
    return ns;
  });
  return out;
}

// ------------------------------------------------------------ overheads ----

// A short closed-loop ingest burst on a fresh client: updates/us (Mups)
// from the first Submit until Flush returns. `traced` adds exactly what the
// traced run adds around each Submit (clock and thread-CPU reads, a span).
Result<double> Burst(const Spec& spec, const Pool& pool, bool metrics,
                     bool traced, double seconds) {
  auto created = Client::Create(MakeOptions(spec, metrics));
  if (!created.ok()) return created.status();
  Client& client = *created.value();
  SpanLog log(traced ? 1 << 16 : 0);
  uint64_t updates = 0;
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + int64_t(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < stop; ++i) {
    const auto& batch = pool.batches[i % pool.batches.size()];
    int64_t s0 = 0, c0 = 0;
    if (traced) c0 = ThreadCpuNs(), s0 = NowNs();
    auto t = client.Submit(batch.data(), batch.size());
    if (traced) log.Add("client.submit", 0, s0, NowNs(), ThreadCpuNs() - c0);
    if (!t.ok()) return t.status();
    updates += batch.size();
  }
  Status s = client.Flush();
  if (!s.ok()) return s;
  return double(updates) / (double(NowNs() - t0) / 1e3);
}

struct Overheads {
  double metrics_pct = 0;
  double trace_pct = 0;
};

// Interleaved bursts: {metrics on}, {metrics off}, {metrics on + traced},
// `rounds` times; medians per configuration.
Result<Overheads> MeasureOverheads(const Spec& spec, const Pool& pool,
                                   int rounds, double seconds) {
  std::vector<double> on, off, traced;
  for (int r = 0; r < rounds; ++r) {
    auto a = Burst(spec, pool, true, false, seconds);
    auto b = Burst(spec, pool, false, false, seconds);
    auto c = Burst(spec, pool, true, true, seconds);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    if (!c.ok()) return c.status();
    on.push_back(a.value());
    off.push_back(b.value());
    traced.push_back(c.value());
  }
  Overheads o;
  const double m_on = Median(on), m_off = Median(off), m_tr = Median(traced);
  o.metrics_pct = (m_off - m_on) / m_off * 100.0;
  o.trace_pct = (m_on - m_tr) / m_on * 100.0;
  return o;
}

// -------------------------------------------------------------- control ----

struct ControlOut {
  std::map<std::string, std::vector<double>> op_us;  ///< per topology op
  double flush_us = 0, serialize_us = 0, import_us = 0;  ///< move_shard phases
  double barrier_us = 0;
  uint64_t attempted = 0, failed = 0;
  std::string error;
};

// A fixed, seeded script of topology calls on a fresh client while the
// producer keeps submitting: MoveSlots / MoveShard in a seeded order, then
// two AddShards(1) (slot ownership after a scale-out is the engine's
// choice, so slot moves come first, against an ownership mirror).
ControlOut RunControl(const Spec& spec, const Pool& pool, uint64_t seed,
                      int n_moves) {
  ControlOut out;
  auto created = Client::Create(MakeOptions(spec, true));
  if (!created.ok()) {
    out.error = created.status().ToString();
    return out;
  }
  Client& client = *created.value();
  Rng rng{seed ^ 0xc0ffee};
  const size_t shards = spec.shards;
  std::vector<uint32_t> owner(shards * 16);
  for (size_t s = 0; s < owner.size(); ++s) owner[s] = uint32_t(s % shards);
  uint64_t next_batch = 0;
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto& b = pool.batches[next_batch++ % pool.batches.size()];
      ++out.attempted;
      if (!client.Submit(b.data(), b.size()).ok()) ++out.failed;
    }
  };
  auto timed = [&](const std::string& op, const std::function<Status()>& fn) {
    feed(4);
    const int64_t t0 = NowNs();
    Status s = fn();
    out.op_us[op].push_back(double(NowNs() - t0) / 1e3);
    ++out.attempted;
    if (!s.ok()) {
      ++out.failed;
      out.error = op + ": " + s.ToString();
    }
  };
  for (int i = 0; i < n_moves; ++i) {
    if (rng.Next() % 2 == 0) {
      const size_t shard = rng.Next() % shards;
      timed("move_shard",
            [&] { return client.MoveShard(shard, CellFactory(spec)); });
    } else {
      const uint32_t source = uint32_t(rng.Next() % shards);
      std::vector<uint32_t> owned;
      for (uint32_t s = 0; s < owner.size(); ++s) {
        if (owner[s] == source) owned.push_back(s);
      }
      if (owned.size() < 2) continue;  // keep every shard owning a slot
      const uint32_t slot = owned[rng.Next() % owned.size()];
      const uint32_t dest =
          uint32_t((source + 1 + rng.Next() % (shards - 1)) % shards);
      owner[slot] = dest;
      timed("move_slots",
            [&] { return client.MoveSlots(source, {slot}, dest); });
    }
  }
  for (int i = 0; i < 2; ++i) {
    timed("add_shards", [&] { return client.AddShards(1, CellFactory(spec)); });
  }
  feed(4);
  ++out.attempted;
  if (!client.Flush().ok()) ++out.failed;

  std::vector<double> flush, ser, imp;
  for (const auto& span : client.TraceSpans()) {
    if (span.name == "move_shard.flush") flush.push_back(double(span.duration_us));
    if (span.name == "move_shard.serialize") ser.push_back(double(span.duration_us));
    if (span.name == "move_shard.import") imp.push_back(double(span.duration_us));
  }
  out.flush_us = Median(flush);
  out.serialize_us = Median(ser);
  out.import_us = Median(imp);
  const auto snap = client.Metrics();
  if (const auto* h = snap.Find("engine.router.barrier_us");
      h != nullptr && h->count > 0) {
    out.barrier_us = double(h->sum) / double(h->count);
  }
  return out;
}

// ----------------------------------------------------- engine counters ----

struct EngineCounters {
  double worker_busy_frac = 0, valve_waits = 0, publishes = 0, shard_skew = 0;
  double mc_hit_ratio = 0, mc_rebuilds = 0, mc_incremental = 0;
  double roundtrip_us = 0, bytes_per_update = 0, frames_total = 0;
  double reconnects = 0;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

EngineCounters ReadCounters(const wbs::engine::MetricsSnapshot& snap,
                            uint64_t total_updates) {
  EngineCounters c;
  double apply_us = 0, hits = 0, rt_sum = 0, rt_count = 0, bytes = 0;
  std::vector<double> shard_updates;
  for (const auto& s : snap.samples) {
    const std::string& n = s.name;
    if (StartsWith(n, "engine.shard.")) {
      if (EndsWith(n, ".apply_us")) apply_us += double(s.sum);
      if (EndsWith(n, ".updates_total")) shard_updates.push_back(double(s.value));
      if (EndsWith(n, ".epoch")) c.publishes += double(s.gauge_value());
      if (EndsWith(n, ".wire.roundtrip_us")) {
        rt_sum += double(s.sum);
        rt_count += double(s.count);
      }
      if (EndsWith(n, ".wire.bytes_out_total")) bytes += double(s.value);
      if (EndsWith(n, ".wire.frames_out_total") ||
          EndsWith(n, ".wire.frames_in_total")) {
        c.frames_total += double(s.value);
      }
      if (EndsWith(n, ".tcp.reconnects_total")) c.reconnects += double(s.value);
    } else if (StartsWith(n, "engine.session.") &&
               EndsWith(n, ".valve_waits_total")) {
      c.valve_waits += double(s.value);
    } else if (StartsWith(n, "engine.sketch.")) {
      if (EndsWith(n, ".merge_cache.hits_total")) hits += double(s.value);
      if (EndsWith(n, ".merge_cache.rebuilds_total")) c.mc_rebuilds += double(s.value);
      if (EndsWith(n, ".merge_cache.incremental_total")) {
        c.mc_incremental += double(s.value);
      }
    }
  }
  c.worker_busy_frac =
      snap.uptime_us > 0
          ? apply_us / (double(snap.uptime_us) * double(kEngineThreads))
          : 0;
  if (!shard_updates.empty()) {
    double sum = 0, mx = 0;
    for (double u : shard_updates) sum += u, mx = std::max(mx, u);
    c.shard_skew = sum > 0 ? mx / (sum / double(shard_updates.size())) : 0;
  }
  const double lookups = hits + c.mc_rebuilds + c.mc_incremental;
  c.mc_hit_ratio = lookups > 0 ? hits / lookups : 0;
  c.roundtrip_us = rt_count > 0 ? rt_sum / rt_count : 0;
  c.bytes_per_update = total_updates > 0 ? bytes / double(total_updates) : 0;
  return c;
}

// ---------------------------------------------------------------- setup ----

// Client::Create until the first batch is acknowledged and the first query
// is answered, in seconds; the client is torn down outside the timing.
// setup_s is the median of kSetupReps such set-ups.
constexpr int kSetupReps = 41;

Result<double> SetupOnce(const Spec& spec, const Pool& pool) {
  const int64_t t0 = NowNs();
  auto created = Client::Create(MakeOptions(spec, true));
  if (!created.ok()) return created.status();
  auto client = std::move(created).value();
  auto queries = BindQueries(spec, *client);
  if (!queries.ok()) return queries.status();
  const auto& batch = pool.batches[0];
  auto ticket = client->Submit(batch.data(), batch.size());
  if (!ticket.ok()) return ticket.status();
  if (Status s = client->Wait(ticket.value()); !s.ok()) return s;
  const uint64_t item = pool.planted.empty() ? 0 : pool.planted[0];
  auto answer = RunQuery(*client, queries.value()[0], item);
  if (!answer.ok()) return answer.status();
  const int64_t t1 = NowNs();
  return double(t1 - t0) / 1e9;
}

// --------------------------------------------------------------- output ----

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.12g", v);
      s += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool referee_selftest = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--smoke") a->smoke = v == "1";
    else if (k == "--referee-selftest") a->referee_selftest = v == "1";
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke 1] [--referee-selftest 1] "
                 "[--trace-out PATH]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : Specs()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "engine_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  std::printf("# env {\"nproc\": %ld, \"cpu_features\": \"%s\", "
              "\"kernel\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              wbs::simd::DetectedCpuFeatures().c_str(),
              wbs::simd::Kernels().name, spec->name.c_str(), args.seed,
              args.trace);

  const Pool pool =
      MakePool(*spec, args.seed, args.smoke ? 16 : spec->pool_batches);
  RunCfg cfg;
  cfg.warmup_s = args.smoke ? 0.1 : 1.0;
  cfg.seconds = args.smoke ? std::min(args.seconds, 0.3) : args.seconds;
  std::unique_ptr<SpanLog> spans;
  if (traced) spans = std::make_unique<SpanLog>(size_t{1} << 20);

  // Set-up is timed first, while the process is quiet: no engine threads
  // yet and a heap the main phase has not churned.
  uint64_t setup_attempted = 0, setup_failed = 0;
  std::vector<double> setup;
  if (!traced) {
    for (int r = 0; r < (args.smoke ? 3 : kSetupReps); ++r) {
      auto s = SetupOnce(*spec, pool);
      ++setup_attempted;
      if (!s.ok()) {
        ++setup_failed;
        std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
        continue;
      }
      setup.push_back(s.value());
    }
  }

  MainOut main_out = RunMain(*spec, pool, cfg, spans.get());
  if (!main_out.error.empty()) {
    std::fprintf(stderr, "engine_bench: %s\n", main_out.error.c_str());
    return 1;
  }
  uint64_t attempted = main_out.attempted + setup_attempted;
  uint64_t failed = main_out.failed + setup_failed;

  const Truth truth = BuildTruth(pool, main_out.uses);
  const Verdict verdict = Referee(*spec, *main_out.client, truth);
  attempted += verdict.checks;
  failed += verdict.total_failures();
  for (const std::string& m : verdict.messages) {
    std::fprintf(stderr, "referee: %s\n", m.c_str());
  }
  if (args.referee_selftest &&
      !RefereeSelfTest(*spec, *main_out.client, truth)) {
    std::fprintf(stderr, "engine_bench: referee self-test failed\n");
    return 3;
  }
  EngineCounters counters;
  if (traced) {
    counters = ReadCounters(main_out.client->Metrics(), main_out.total_updates);
  }
  main_out.client.reset();

  MetricSet m;
  if (!traced) {
    m.Add("setup_s", Median(setup), "s");
    m.Add("ingest_mups", main_out.ingest_mups, "Mupdates/s");
    m.Add("ticket_p50_us", main_out.ticket_p50_us, "us");
    m.Add("visible_p50_us", main_out.visible_p50_us, "us");
    m.Add("visible_p90_us", main_out.visible_p90_us, "us");
    m.Add("query_kqps", main_out.query_kqps, "kqueries/s");
    m.Add("engine_heap_mib", main_out.heap_mib, "MiB");
  } else {
    auto overheads = MeasureOverheads(*spec, pool, 5, args.smoke ? 0.05 : 0.4);
    ++attempted;
    if (!overheads.ok()) {
      ++failed;
      std::fprintf(stderr, "overheads: %s\n",
                   overheads.status().ToString().c_str());
    }
    const Overheads ov = overheads.ok() ? overheads.value() : Overheads{};
    const size_t replay_batches =
        args.smoke ? 4 : std::max<size_t>(8, (size_t{1} << 19) / spec->batch);
    const ReplayOut rp = Replay(*spec, pool, replay_batches);
    ++attempted;
    if (!rp.error.empty()) {
      ++failed;
      std::fprintf(stderr, "replay: %s\n", rp.error.c_str());
    }
    const ControlOut ctl = RunControl(*spec, pool, args.seed, args.smoke ? 3 : 10);
    attempted += ctl.attempted;
    failed += ctl.failed;
    if (!ctl.error.empty()) std::fprintf(stderr, "control: %s\n", ctl.error.c_str());

    m.Add("client.submit_us.p50", Quantile(main_out.submit_us, 0.5), "us");
    m.Add("client.submit_us.p99", Quantile(main_out.submit_us, 0.99), "us");
    for (int kind = 0; kind < 3; ++kind) {
      const std::string base = std::string("client.query_us.") + kKindNames[kind];
      m.Add(base + ".p50", Quantile(main_out.query_us[kind], 0.5), "us");
      m.Add(base + ".p99", Quantile(main_out.query_us[kind], 0.99), "us");
    }
    for (const char* op : {"add_shards", "move_shard", "move_slots"}) {
      auto it = ctl.op_us.find(op);
      m.Add(std::string("client.topology_op_us.") + op,
            it == ctl.op_us.end() ? 0 : Median(it->second), "us");
    }
    m.Add("topology.slot_of_ns", rp.slot_of_ns, "ns");
    m.Add("simd.hash_items_ns", rp.hash_items_ns, "ns");
    m.Add("simd.ams_row_mix_ns", rp.ams_row_mix_ns, "ns");
    m.Add("simd.sis_column_update_ns", rp.sis_column_update_ns, "ns");
    m.Add("simd.sha256_salted8_ns", rp.sha256_salted8_ns, "ns");
    m.Add("sketch.aggregate_ns", rp.aggregate_ns, "ns");
    double apply_ns_sum = 0, clone_us_sum = 0;
    for (const char* fam : kFamilies) {
      auto it = rp.family.find(fam);
      const FamilyCost c = it == rp.family.end() ? FamilyCost{} : it->second;
      apply_ns_sum += c.apply_ns;
      clone_us_sum += c.clone_us;
      const std::string f = fam;
      m.Add("sketch.apply_ns." + f, c.apply_ns, "ns");
      m.Add("sketch.clone_us." + f, c.clone_us, "us");
      m.Add("sketch.merge_us." + f, c.merge_us, "us");
      if (IsLinear(f)) m.Add("sketch.unmerge_us." + f, c.unmerge_us, "us");
      m.Add("sketch.summary_us." + f, c.summary_us, "us");
      m.Add("sketch.space_bits." + f, c.space_bits, "bits");
      m.Add("wire.serialize_us." + f, c.serialize_us, "us");
      m.Add("wire.deserialize_us." + f, c.deserialize_us, "us");
      m.Add("wire.state_bytes." + f, c.state_bytes, "bytes");
    }
    m.Add("wire.encode_updates_ns", rp.encode_updates_ns, "ns");
    m.Add("sharded_ingestor.worker_busy_frac", counters.worker_busy_frac, "ratio");
    m.Add("sharded_ingestor.valve_waits", counters.valve_waits, "count");
    m.Add("sharded_ingestor.publishes", counters.publishes, "count");
    m.Add("sharded_ingestor.shard_skew", counters.shard_skew, "ratio");
    m.Add("sharded_ingestor.merge_cache.hit_ratio", counters.mc_hit_ratio, "ratio");
    m.Add("sharded_ingestor.merge_cache.rebuilds", counters.mc_rebuilds, "count");
    m.Add("sharded_ingestor.merge_cache.incremental", counters.mc_incremental,
          "count");
    m.Add("sharded_ingestor.router_barrier_us", ctl.barrier_us, "us");
    m.Add("move_shard.flush_us", ctl.flush_us, "us");
    m.Add("move_shard.serialize_us", ctl.serialize_us, "us");
    m.Add("move_shard.import_us", ctl.import_us, "us");
    m.Add("remote_backend.roundtrip_us", counters.roundtrip_us, "us");
    m.Add("remote_backend.bytes_per_update", counters.bytes_per_update,
          "bytes/update");
    m.Add("remote_backend.frames_total", counters.frames_total, "count");
    m.Add("tcp_transport.reconnects_total", counters.reconnects, "count");
    m.Add("metrics.overhead_pct", ov.metrics_pct, "%");
    m.Add("bench.trace_overhead_pct", ov.trace_pct, "%");
    m.Add("bench.gen_late_p99_us", main_out.gen_late_p99_us, "us");
    m.Add("bench.drain_ms", main_out.drain_ms, "ms");
    m.Add("bench.ticket_p90_us", main_out.ticket_p90_us, "us");
    m.Add("bench.ticket_p99_us", main_out.ticket_p99_us, "us");
    m.Add("bench.visible_p99_us", main_out.visible_p99_us, "us");
    m.Add("bench.query_p50_us", main_out.query_p50_us, "us");
    m.Add("bench.query_p90_us", main_out.query_p90_us, "us");
    m.Add("bench.query_p99_us", main_out.query_p99_us, "us");

    // Layer budget: shares of the engine's CPU time in the measured window
    // (process CPU minus the benchmark threads' own time outside Client
    // calls). Replay costs are scaled by the window's update count; the
    // snapshot publishes by the window's share of all updates.
    const double budget = main_out.budget_cpu_ns;
    const double u = double(main_out.window_updates);
    const double publishes_window =
        main_out.total_updates > 0
            ? counters.publishes * u / double(main_out.total_updates)
            : 0;
    auto pct = [&](double ns) { return budget > 0 ? ns / budget * 100.0 : 0; };
    const double shares[] = {
        pct(main_out.submit_cpu_ns),
        pct(main_out.query_cpu_ns),
        pct(rp.aggregate_ns * u),
        pct(apply_ns_sum * u),
        pct(clone_us_sum * 1e3 * publishes_window),
        pct(spec->tcp ? rp.encode_updates_ns * u : 0),
    };
    const char* const share_names[] = {"client_submit",    "client_query",
                                       "sketch_aggregate", "sketch_apply",
                                       "snapshot_publish", "wire"};
    double attributed = 0;
    for (size_t i = 0; i < 6; ++i) {
      m.Add(std::string("bench.share_pct.") + share_names[i], shares[i], "%");
      attributed += shares[i];
    }
    m.Add("bench.unattributed_pct", 100.0 - attributed, "%");
    if (!args.trace_out.empty() && spans != nullptr) {
      spans->WriteJsonl(args.trace_out);
    }
  }

  const bool valid = !main_out.generator_behind;
  if (!valid) {
    std::printf("# invalid: the open-loop generator fell behind its schedule\n");
  }
  std::printf("# samples tickets=%zu queries=%zu updates=%" PRIu64
              " error_ratio=%.6g host_steal_pct=%.3g\n",
              main_out.samples_ticket, main_out.samples_query,
              main_out.total_updates,
              attempted > 0 ? double(failed) / double(attempted) : 0.0,
              main_out.host_steal_pct);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 && valid ? "true" : "false", attempted, failed,
              m.Json().c_str());
  // A wrong answer or an invalid open loop fails the command as well.
  return failed == 0 && valid ? 0 : 1;
}
