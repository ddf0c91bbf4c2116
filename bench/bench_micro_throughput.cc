// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Google-benchmark microbenchmarks: per-update cost of every streaming
// structure in the library. Not a paper experiment — an engineering
// companion that quantifies the price of white-box robustness in
// nanoseconds rather than bits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/modmath.h"
#include "common/random.h"
#include "common/simd.h"
#include "counter/morris.h"
#include "crypto/crhf.h"
#include "crypto/sha256.h"
#include "distinct/l0_estimator.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "engine/wire.h"
#include "heavyhitters/misra_gries.h"
#include "heavyhitters/robust_hh.h"
#include "hhh/hhh.h"
#include "linalg/rank_sketch.h"
#include "moments/ams.h"
#include "strings/fingerprint.h"
#include "stream/workload.h"

namespace {

void BM_Sha256_64B(benchmark::State& state) {
  uint8_t buf[64] = {0};
  uint64_t i = 0;
  for (auto _ : state) {
    buf[0] = uint8_t(i++);
    benchmark::DoNotOptimize(wbs::crypto::Sha256::Hash64(buf, sizeof(buf)));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_MorrisIncrement(benchmark::State& state) {
  wbs::RandomTape tape(1);
  tape.set_logging(false);
  wbs::counter::MorrisRegister reg(0.01, &tape);
  for (auto _ : state) {
    reg.Increment();
    benchmark::DoNotOptimize(reg.register_value());
  }
}
BENCHMARK(BM_MorrisIncrement);

void BM_MisraGriesAdd(benchmark::State& state) {
  wbs::hh::MisraGries mg(size_t(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    mg.Add((i++ * 0x9e3779b97f4a7c15ULL) >> 44);
  }
}
BENCHMARK(BM_MisraGriesAdd)->Arg(16)->Arg(128);

void BM_RobustHhUpdate(benchmark::State& state) {
  wbs::RandomTape tape(2);
  tape.set_logging(false);
  wbs::hh::RobustL1HeavyHitters alg(uint64_t{1} << 20, 0.1, 0.25, &tape);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.Update({(i++ * 48271) % (1 << 20)}));
  }
}
BENCHMARK(BM_RobustHhUpdate);

void BM_RobustHhhUpdate(benchmark::State& state) {
  wbs::RandomTape tape(3);
  tape.set_logging(false);
  wbs::hhh::Hierarchy h = wbs::hhh::Hierarchy::Bytes(16);
  wbs::hhh::RobustHhh alg(h, 1 << 16, 0.1, 0.25, 0.25, &tape);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.Update({(i++ * 48271) % (1 << 16)}));
  }
}
BENCHMARK(BM_RobustHhhUpdate);

void BM_AmsUpdate(benchmark::State& state) {
  wbs::RandomTape tape(4);
  tape.set_logging(false);
  wbs::moments::AmsF2Sketch alg(uint64_t{1} << 20,
                                size_t(state.range(0)), &tape);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.Update({(i++ * 48271) % (1 << 20), 1}));
  }
}
BENCHMARK(BM_AmsUpdate)->Arg(12)->Arg(48);

void BM_SisL0Update(benchmark::State& state) {
  wbs::crypto::RandomOracle oracle(5);
  auto params = wbs::distinct::SisL0Params::Derive(1 << 14, 0.5, 0.25, 100);
  wbs::distinct::SisL0Estimator alg(params, oracle, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.Update({(i++ * 48271) % (1 << 14), 1}));
  }
}
BENCHMARK(BM_SisL0Update);

void BM_RankSketchUpdate(benchmark::State& state) {
  wbs::crypto::RandomOracle oracle(6);
  wbs::linalg::RankDecisionSketch alg(64, size_t(state.range(0)), 1000003,
                                      oracle, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alg.Update({size_t(i % 64), size_t((i / 64) % 64), 1}));
    ++i;
  }
}
BENCHMARK(BM_RankSketchUpdate)->Arg(4)->Arg(16);

void BM_DlogFingerprintAppendChar(benchmark::State& state) {
  wbs::RandomTape tape(7);
  wbs::crypto::DlogParams g = wbs::crypto::DlogParams::Generate(40, &tape);
  wbs::crypto::DlogFingerprint f(g);
  uint64_t i = 0;
  for (auto _ : state) {
    f.AppendChar(i++ & 0xff, 8);
    benchmark::DoNotOptimize(f.value());
  }
}
BENCHMARK(BM_DlogFingerprintAppendChar);

void BM_KarpRabinAppend(benchmark::State& state) {
  wbs::RandomTape tape(8);
  wbs::strings::KarpRabinParams p =
      wbs::strings::KarpRabinParams::Generate(40, &tape);
  wbs::strings::KarpRabin kr(p);
  uint64_t i = 0;
  for (auto _ : state) {
    kr.Append(i++ & 0xff);
    benchmark::DoNotOptimize(kr.value());
  }
}
BENCHMARK(BM_KarpRabinAppend);

// ------------------------------------------------------- engine throughput --
//
// The perf-trajectory baseline for the sharded ingestion engine: updates/sec
// of the full sketch group {misra_gries, ams_f2, sis_l0} on a Zipf workload,
// across the unbatched single-threaded path (the seed's behaviour, routed
// through the engine), the batched single-shard path, and the sharded
// batched path at 1/2/4/8 worker threads. Each mode emits one JSONL row
// (bench_util.h JsonRow) so CI logs can be scraped for regressions.
//
// The batched speedup comes from (a) amortizing per-update queue/dispatch
// costs over the batch and (b) pre-aggregating duplicate items before the
// linear/weighted sketches see them — on Zipfian traffic most of a batch is
// duplicates, so the expensive AMS row-loop and SIS column-add run once per
// distinct item instead of once per update. Sharding adds parallelism on
// multi-core hosts on top.

wbs::engine::ClientOptions EngineClientOptions(uint64_t universe,
                                               size_t shards,
                                               size_t threads) {
  wbs::engine::ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = threads;
  opts.ingest.sketches = {"misra_gries", "ams_f2", "sis_l0"};
  opts.ingest.config.universe = universe;
  opts.ingest.config.seed = 2025;
  return opts;
}

wbs::Status ReplayItems(wbs::engine::Client* client,
                        const wbs::stream::ItemStream& s, size_t batch) {
  for (size_t off = 0; off < s.size(); off += batch) {
    auto t = client->SubmitItems(s.data() + off,
                                 std::min(batch, s.size() - off));
    if (!t.ok()) return t.status();
  }
  return wbs::Status::OK();
}

double RunEngineMode(const char* mode, const wbs::stream::ItemStream& zipf,
                     uint64_t universe, size_t shards, size_t threads,
                     size_t batch, double baseline_ups) {
  auto client = wbs::engine::Client::Create(
      EngineClientOptions(universe, shards, threads));
  if (!client.ok()) {
    std::fprintf(stderr, "engine client: %s\n",
                 client.status().ToString().c_str());
    return 0;
  }
  const auto t0 = std::chrono::steady_clock::now();
  wbs::Status s = ReplayItems(client.value().get(), zipf, batch);
  if (s.ok()) s = client.value()->Finish();
  const auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) {
    std::fprintf(stderr, "engine replay: %s\n", s.ToString().c_str());
    return 0;
  }
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double ups = double(zipf.size()) / seconds;
  wbs::bench::JsonRow row;
  row.Field("bench", "engine_throughput")
      .Field("mode", mode)
      .Field("cpu_features", wbs::simd::DetectedCpuFeatures())
      .Field("kernel", wbs::simd::Kernels().name)
      .Field("shards", uint64_t(shards))
      .Field("threads", uint64_t(threads))
      .Field("batch", uint64_t(batch))
      .Field("updates", uint64_t(zipf.size()))
      .Field("seconds", seconds)
      .Field("updates_per_sec", ups);
  if (baseline_ups > 0) {
    row.Field("speedup_vs_unbatched", ups / baseline_ups);
  }
  row.Emit();
  return ups;
}

void RunEngineThroughput(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_throughput",
      "sharded ingestion engine: batched + sharded updates/sec on Zipf "
      "traffic through {misra_gries, ams_f2, sis_l0}");
  const uint64_t universe = 4096;
  wbs::RandomTape tape(101);
  tape.set_logging(false);
  auto zipf = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
  const double base =
      RunEngineMode("single_unbatched", zipf, universe, 1, 0, 1, 0);
  RunEngineMode("engine_batched", zipf, universe, 1, 0, 32768, base);
  for (size_t threads : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    RunEngineMode("sharded_batched", zipf, universe, 8, threads, 32768, base);
  }
}

// --------------------------------------------------- mixed read/write mode --
//
// One producer replays Zipf traffic through worker threads while a second
// thread hammers the typed queries — no Flush() anywhere. This exercises the
// epoch-snapshot path end to end and reports query latency percentiles
// taken *during* ingestion, the number the quiescence-free redesign exists
// for.

void RunEngineMixed(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_mixed",
      "typed snapshot queries served mid-ingest (no Flush): updates/sec "
      "with a concurrent query thread, query latency p50/p99");
  const uint64_t universe = 4096;
  const size_t shards = 8, threads = 4, batch = 32768;
  wbs::RandomTape tape(102);
  tape.set_logging(false);
  auto zipf = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);

  auto client = wbs::engine::Client::Create(
      EngineClientOptions(universe, shards, threads));
  if (!client.ok()) {
    std::fprintf(stderr, "engine client: %s\n",
                 client.status().ToString().c_str());
    return;
  }
  // Handles resolved once — the query loop below never hashes a name.
  auto f2 = client.value()->Handle("ams_f2").value();
  auto l0 = client.value()->Handle("sis_l0").value();
  auto mg = client.value()->Handle("misra_gries").value();

  std::atomic<bool> stop{false};
  std::vector<double> latencies_us;
  uint64_t query_errors = 0;
  std::thread querier([&] {
    size_t qi = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto q0 = std::chrono::steady_clock::now();
      bool ok = false;
      switch (qi++ % 3) {
        case 0:
          ok = client.value()->QueryScalar(f2).ok();
          break;
        case 1:
          ok = client.value()->QueryScalar(l0).ok();
          break;
        default:
          ok = client.value()->QueryTopK(mg, 16).ok();
          break;
      }
      const auto q1 = std::chrono::steady_clock::now();
      if (ok) {
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
      } else {
        ++query_errors;
      }
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  wbs::Status s = ReplayItems(client.value().get(), zipf, batch);
  if (s.ok()) s = client.value()->Flush();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  if (s.ok()) s = client.value()->Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "engine mixed replay: %s\n", s.ToString().c_str());
    return;
  }
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t n = latencies_us.size();
  const double p50 = n ? latencies_us[n / 2] : 0;
  const double p99 = n ? latencies_us[std::min(n - 1, n * 99 / 100)] : 0;
  wbs::bench::JsonRow()
      .Field("bench", "engine_mixed")
      .Field("shards", uint64_t(shards))
      .Field("threads", uint64_t(threads))
      .Field("batch", uint64_t(batch))
      .Field("updates", uint64_t(zipf.size()))
      .Field("updates_per_sec", double(zipf.size()) / seconds)
      .Field("mid_ingest_queries", uint64_t(n))
      .Field("queries_per_sec", seconds > 0 ? double(n) / seconds : 0)
      .Field("query_p50_us", p50)
      .Field("query_p99_us", p99)
      .Field("query_errors", query_errors)
      .Field("flush_free", true)
      .Emit();
}

// ------------------------------------------------------- multi-producer --
//
// P producer threads split the Zipf stream into interleaved batches and
// push them through Client::Submit concurrently (the MPSC submission path:
// scatter on the producer threads, sequence assignment under a short
// mutex, worker backpressure absorbed by the router) while one thread
// issues typed queries through pre-resolved handles. P = 1 is the
// single-producer regression guard for the async path; P > 1 shows submit
// scaling (bounded by free cores once the workers saturate).

double RunEngineMultiProducer(size_t producers,
                              const wbs::stream::TurnstileStream& s,
                              uint64_t universe, double one_producer_ups) {
  const size_t shards = 8, threads = 4, batch = 32768;
  auto client = wbs::engine::Client::Create(
      EngineClientOptions(universe, shards, threads));
  if (!client.ok()) {
    std::fprintf(stderr, "engine client: %s\n",
                 client.status().ToString().c_str());
    return 0;
  }
  auto f2 = client.value()->Handle("ams_f2").value();
  auto mg = client.value()->Handle("misra_gries").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0}, query_errors{0};
  std::thread querier([&] {
    size_t qi = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const bool ok = (qi++ % 2 == 0)
                          ? client.value()->QueryScalar(f2).ok()
                          : client.value()->QueryTopK(mg, 16).ok();
      ok ? ++queries : ++query_errors;
    }
  });

  std::atomic<uint64_t> submit_errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pthreads;
  pthreads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    pthreads.emplace_back([&, p] {
      // Producer p owns every producers-th batch; tickets are fire-and-
      // forget here (Flush below waits for everything at once).
      for (size_t off = p * batch; off < s.size();
           off += producers * batch) {
        const size_t n = std::min(batch, s.size() - off);
        auto t = client.value()->Submit(s.data() + off, n);
        if (!t.ok()) {
          ++submit_errors;
          return;
        }
      }
    });
  }
  for (auto& t : pthreads) t.join();
  wbs::Status st = client.value()->Flush();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  if (st.ok()) st = client.value()->Finish();
  if (!st.ok() || submit_errors.load() > 0) {
    std::fprintf(stderr, "engine multi-producer: %s\n",
                 st.ToString().c_str());
    return 0;
  }
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double ups = double(s.size()) / seconds;
  wbs::bench::JsonRow row;
  row.Field("bench", "engine_multi_producer")
      .Field("producers", uint64_t(producers))
      .Field("shards", uint64_t(shards))
      .Field("threads", uint64_t(threads))
      .Field("batch", uint64_t(batch))
      .Field("updates", uint64_t(s.size()))
      .Field("seconds", seconds)
      .Field("updates_per_sec", ups)
      .Field("mid_ingest_queries", queries.load())
      .Field("query_errors", query_errors.load());
  if (one_producer_ups > 0) {
    row.Field("speedup_vs_one_producer", ups / one_producer_ups);
  }
  row.Emit();
  return ups;
}

void RunEngineMultiProducerSweep(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_multi_producer",
      "MPSC async submit (IngestTicket path): updates/sec with 1/2/4 "
      "producer threads submitting concurrently, typed queries mid-ingest");
  const uint64_t universe = 4096;
  wbs::RandomTape tape(104);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  const double base = RunEngineMultiProducer(1, s, universe, 0);
  for (size_t producers : {size_t(2), size_t(4)}) {
    RunEngineMultiProducer(producers, s, universe, base);
  }
}

// -------------------------------------------------------- shard backends --
//
// The pluggable ShardBackend boundary priced end to end: the same
// multi-producer workload through the in-process backend (zero-copy apply,
// the engine's original path) and the tcp backend (every shard behind a
// self-hosted localhost listener speaking the wire format — per-batch
// encode, two socket hops, host-side apply, serialized snapshots on the
// query path). The gap between the two rows is the cost of a process
// boundary; a real network would add latency on top of exactly the same
// protocol.

double RunEngineBackendMode(const char* backend_name,
                            const wbs::engine::BackendFactory& factory,
                            size_t producers,
                            const wbs::stream::TurnstileStream& s,
                            uint64_t universe) {
  const size_t shards = 8, threads = 4, batch = 32768;
  wbs::engine::ClientOptions opts =
      EngineClientOptions(universe, shards, threads);
  opts.ingest.backend = factory;
  auto client = wbs::engine::Client::Create(opts);
  if (!client.ok()) {
    std::fprintf(stderr, "engine backend client: %s\n",
                 client.status().ToString().c_str());
    return 0;
  }
  auto f2 = client.value()->Handle("ams_f2").value();
  auto mg = client.value()->Handle("misra_gries").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0}, query_errors{0};
  std::thread querier([&] {
    size_t qi = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const bool ok = (qi++ % 2 == 0)
                          ? client.value()->QueryScalar(f2).ok()
                          : client.value()->QueryTopK(mg, 16).ok();
      ok ? ++queries : ++query_errors;
    }
  });

  std::atomic<uint64_t> submit_errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pthreads;
  pthreads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    pthreads.emplace_back([&, p] {
      for (size_t off = p * batch; off < s.size();
           off += producers * batch) {
        const size_t n = std::min(batch, s.size() - off);
        if (!client.value()->Submit(s.data() + off, n).ok()) {
          ++submit_errors;
          return;
        }
      }
    });
  }
  for (auto& t : pthreads) t.join();
  wbs::Status st = client.value()->Flush();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  if (st.ok()) st = client.value()->Finish();
  if (!st.ok() || submit_errors.load() > 0) {
    std::fprintf(stderr, "engine backend bench (%s): %s\n", backend_name,
                 st.ToString().c_str());
    return 0;
  }
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double ups = double(s.size()) / seconds;
  wbs::bench::JsonRow()
      .Field("bench", "engine_backend")
      .Field("backend", backend_name)
      .Field("producers", uint64_t(producers))
      .Field("shards", uint64_t(shards))
      .Field("threads", uint64_t(threads))
      .Field("batch", uint64_t(batch))
      .Field("updates", uint64_t(s.size()))
      .Field("seconds", seconds)
      .Field("updates_per_sec", ups)
      .Field("mid_ingest_queries", queries.load())
      .Field("queries_per_sec", seconds > 0 ? double(queries.load()) / seconds
                                            : 0)
      .Field("query_errors", query_errors.load())
      .Emit();
  return ups;
}

void RunEngineBackendSweep(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_backend",
      "pluggable ShardBackend boundary: inprocess (zero-copy) vs tcp "
      "(localhost sockets + handshake + wire format) at 1/2/4 producers, "
      "typed queries mid-ingest");
  const uint64_t universe = 4096;
  wbs::RandomTape tape(105);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  for (size_t producers : {size_t(1), size_t(2), size_t(4)}) {
    RunEngineBackendMode("inprocess", wbs::engine::InProcessBackendFactory(),
                         producers, s, universe);
    RunEngineBackendMode("tcp", wbs::engine::TcpBackendFactory(),
                         producers, s, universe);
  }
}

// ------------------------------------------------------------ tcp transport --
//
// The TCP transport's own price sheet (tcp_transport.h): query and control
// round-trip latency over real localhost sockets, and the cost of the
// reconnect-resync path (a severed connection redialed + handshaken, state
// intact) vs a full MoveShard re-home (state serialized and transferred) —
// the number that justifies distinguishing transient partitions from dead
// peers.

void RunEngineTcpBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_tcp",
      "TCP transport: query p50/p99 and heartbeat RTT; reconnect-resync "
      "cost vs full MoveShard re-home");
  using clock = std::chrono::steady_clock;
  const uint64_t universe = 4096;
  const size_t ingest = size_t(std::min<uint64_t>(num_updates, 100000));
  wbs::RandomTape tape(113);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, ingest, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  // Query + heartbeat latency over an ingested state. Queries are served
  // from merged snapshots, so each sample pays the transport only when a
  // shard's epoch moved — Flush() first, then the steady-state samples
  // measure the wire floor.
  {
    wbs::engine::ClientOptions opts =
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/2);
    opts.ingest.backend = wbs::engine::TcpBackendFactory();
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) return;
    if (!client.value()->Submit(s).ok() || !client.value()->Flush().ok()) {
      return;
    }

    const size_t kQueries = 2000;
    std::vector<double> query_us;
    query_us.reserve(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      // Touch one shard's live summary per sample so the transport is on
      // the measured path (merged-snapshot queries would be memory reads).
      const auto t0 = clock::now();
      auto est = client.value()->ingestor().ShardSummary(i % 4, "ams_f2");
      const auto t1 = clock::now();
      if (!est.ok()) return;
      query_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    std::sort(query_us.begin(), query_us.end());
    auto pct = [&](double q) {
      return query_us[std::min(query_us.size() - 1,
                               size_t(q * double(query_us.size())))];
    };
    // Control-plane RTT: a bare heartbeat probe against a shard-0 cell.
    wbs::engine::BackendOptions probe_opts;
    probe_opts.sketches = opts.ingest.sketches;
    probe_opts.config = wbs::engine::ShardConfigFor(opts.ingest.config, 0);
    auto probe = opts.ingest.backend(probe_opts);
    if (!probe.ok()) return;
    const size_t kProbes = 2000;
    const auto h0 = clock::now();
    for (size_t i = 0; i < kProbes; ++i) {
      if (!probe.value()->Heartbeat(1000).ok()) return;
    }
    const auto h1 = clock::now();
    const double heartbeat_us =
        std::chrono::duration<double, std::micro>(h1 - h0).count() /
        double(kProbes);
    wbs::bench::JsonRow()
        .Field("bench", "engine_tcp")
        .Field("mode", "latency")
        .Field("transport", "tcp")
        .Field("queries", uint64_t(kQueries))
        .Field("query_p50_us", pct(0.50))
        .Field("query_p99_us", pct(0.99))
        .Field("heartbeat_rtt_us", heartbeat_us)
        .Emit();
    (void)client.value()->Finish();
  }

  // Reconnect-resync vs full re-home, on one tcp engine with real state.
  {
    wbs::engine::ClientOptions opts =
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/2);
    opts.ingest.backend = wbs::engine::TcpBackendFactory();
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) return;
    if (!client.value()->Submit(s).ok() || !client.value()->Flush().ok()) {
      return;
    }
    // Transient partition: sever shard 0's connections, then the next
    // operation pays dial + handshake + resync. Session state never moves.
    const auto r0 = clock::now();
    if (!client.value()->InjectShardPartition(0).ok()) return;
    if (!client.value()->ingestor().ShardSummary(0, "ams_f2").ok()) return;
    const auto r1 = clock::now();
    const double resync_us =
        std::chrono::duration<double, std::micro>(r1 - r0).count();
    // Full re-home: serialize every sketch of shard 0, ship it into a
    // fresh tcp placement, flip the routing table at a barrier.
    const auto m0 = clock::now();
    if (!client.value()->MoveShard(0, wbs::engine::TcpBackendFactory()).ok()) {
      return;
    }
    const auto m1 = clock::now();
    const double rehome_us =
        std::chrono::duration<double, std::micro>(m1 - m0).count();
    wbs::bench::JsonRow()
        .Field("bench", "engine_tcp")
        .Field("mode", "partition_recovery")
        .Field("ingested_updates", uint64_t(s.size()))
        .Field("resync_us", resync_us)
        .Field("rehome_us", rehome_us)
        .Field("rehome_over_resync", resync_us > 0 ? rehome_us / resync_us
                                                   : 0)
        .Emit();
    (void)client.value()->Finish();
  }
}

// -------------------------------------------------------- wire serialize --
//
// The serialization wire format itself: bytes and microseconds to
// serialize / deserialize one snapshot per sketch family, on state built
// from a Zipf ingest. This is the per-snapshot price a remote backend pays
// on the query path (amortized by the merge cache's epoch dirty-checks).

void RunWireSerializeBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "wire_serialize",
      "sketch-state wire format: serialize/deserialize cost and snapshot "
      "bytes per family (checksummed kSketchState frames)");
  const uint64_t universe = 4096;
  wbs::engine::SketchConfig cfg;
  cfg.universe = universe;
  cfg.seed = 2025;
  cfg.shard_seed = 77;
  cfg.rank.n = 64;
  cfg.rank.k = 8;

  wbs::RandomTape tape(106);
  tape.set_logging(false);
  const size_t ingest = size_t(std::min<uint64_t>(num_updates, 200000));
  auto items = wbs::stream::ZipfStream(universe, ingest, 1.2, &tape);
  wbs::stream::TurnstileStream zipf;
  zipf.reserve(items.size());
  for (const auto& u : items) zipf.push_back({u.item, 1});
  // rank_decision streams matrix entries, not universe items.
  wbs::stream::TurnstileStream rank_stream;
  for (size_t i = 0; i < cfg.rank.k; ++i) {
    rank_stream.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }

  for (const char* name : {"misra_gries", "ams_f2", "sis_l0",
                           "rank_decision", "robust_hh", "crhf_hh"}) {
    auto sketch = wbs::engine::SketchRegistry::Global().Create(name, cfg);
    if (!sketch.ok()) continue;
    const auto& stream_for =
        std::strcmp(name, "rank_decision") == 0 ? rank_stream : zipf;
    for (size_t off = 0; off < stream_for.size(); off += 4096) {
      wbs::engine::UpdateBatch b;
      b.data = stream_for.data() + off;
      b.size = std::min<size_t>(4096, stream_for.size() - off);
      if (!sketch.value()->ApplyBatch(b).ok()) break;
    }

    const int kReps = 50;
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    std::string frame;
    for (int i = 0; i < kReps; ++i) {
      auto f = wbs::engine::SerializeSketch(*sketch.value());
      if (!f.ok()) {
        frame.clear();
        break;
      }
      frame = std::move(f).value();
    }
    auto t1 = clock::now();
    if (frame.empty()) continue;
    bool restored_ok = true;
    for (int i = 0; i < kReps; ++i) {
      auto restored = wbs::engine::DeserializeSketch(name, cfg, frame);
      restored_ok &= restored.ok();
    }
    auto t2 = clock::now();
    const double ser_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kReps;
    const double deser_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() / kReps;
    wbs::bench::JsonRow()
        .Field("bench", "wire_serialize")
        .Field("sketch", name)
        .Field("ingested_updates", uint64_t(stream_for.size()))
        .Field("state_bytes", uint64_t(frame.size()))
        .Field("serialize_us", ser_us)
        .Field("deserialize_us", deser_us)
        .Field("round_trip_ok", restored_ok)
        .Emit();
  }
}

// ------------------------------------------------------------ resharding --
//
// The dynamic topology priced end to end: (a) MoveShard handoff latency
// per sketch family — drain, source publish, state serialization, and
// destination import (an in-process target; the serialized snapshot
// states are the transfer format), and (b) ingest throughput
// around a live AddShards step: updates/sec before the step, the barrier
// latency of the step itself (the only window ingest pauses), and
// updates/sec after, on the grown topology.

void RunEngineReshardBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_reshard",
      "live topology ops: MoveShard handoff latency per family "
      "(drain/flush/serialize/import + state bytes) and updates/sec "
      "before/during/after a mid-ingest AddShards step");
  using clock = std::chrono::steady_clock;
  const uint64_t universe = 4096;

  // ---- (a) handoff latency per family -----------------------------------
  const size_t ingest = size_t(std::min<uint64_t>(num_updates, 200000));
  for (const char* name : {"misra_gries", "ams_f2", "sis_l0",
                           "rank_decision", "robust_hh", "crhf_hh"}) {
    wbs::engine::ClientOptions opts;
    opts.ingest.num_shards = 2;
    opts.ingest.num_threads = 2;
    opts.ingest.sketches = {name};
    opts.ingest.config.universe = universe;
    opts.ingest.config.seed = 2025;
    if (std::strcmp(name, "rank_decision") == 0) {
      opts.ingest.config.rank.n = 64;
      opts.ingest.config.rank.k = 8;
    }
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) continue;

    wbs::stream::TurnstileStream s;
    if (std::strcmp(name, "rank_decision") == 0) {
      for (size_t i = 0; i < opts.ingest.config.rank.k; ++i) {
        s.push_back({uint64_t(i) * opts.ingest.config.rank.n + i, 1});
      }
    } else {
      wbs::RandomTape tape(107);
      tape.set_logging(false);
      auto items = wbs::stream::ZipfStream(universe, ingest, 1.2, &tape);
      s.reserve(items.size());
      for (const auto& u : items) s.push_back({u.item, 1});
    }
    for (size_t off = 0; off < s.size(); off += 32768) {
      if (!client.value()
               ->Submit(s.data() + off, std::min<size_t>(32768,
                                                         s.size() - off))
               .ok()) {
        break;
      }
    }
    if (!client.value()->Flush().ok()) continue;

    const auto t0 = clock::now();
    wbs::Status moved =
        client.value()->MoveShard(0, wbs::engine::InProcessBackendFactory());
    const auto t1 = clock::now();
    // Phase timings come from the engine's recorded trace spans — the
    // single source of truth, no external re-measurement that could
    // disagree with what the tracer reports. The externally-timed total
    // stays, because it additionally covers the router barrier drain.
    uint64_t flush_us = 0, serialize_us = 0, import_us = 0, state_bytes = 0;
    {
      const auto spans = client.value()->TraceSpans();
      uint64_t move_id = 0;
      for (const auto& span : spans) {
        if (span.name == "move_shard") {
          move_id = span.id;
          state_bytes = span.Attr("state_bytes");
        }
      }
      for (const auto& span : spans) {
        if (span.parent != move_id) continue;
        if (span.name == "move_shard.flush") flush_us = span.duration_us;
        if (span.name == "move_shard.serialize") {
          serialize_us = span.duration_us;
        }
        if (span.name == "move_shard.import") import_us = span.duration_us;
      }
    }
    (void)client.value()->Finish();
    if (!moved.ok()) continue;
    const double total_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const double phases_us =
        double(flush_us) + double(serialize_us) + double(import_us);
    wbs::bench::JsonRow()
        .Field("bench", "engine_reshard")
        .Field("op", "move_shard")
        .Field("sketch", name)
        .Field("target", "inprocess")
        .Field("ingested_updates", uint64_t(s.size()))
        .Field("state_bytes", state_bytes)
        .Field("flush_us", flush_us)
        .Field("serialize_us", serialize_us)
        .Field("import_us", import_us)
        .Field("drain_us", total_us > phases_us ? total_us - phases_us : 0)
        .Field("total_us", total_us)
        .Emit();
  }

  // ---- (b) throughput around a live AddShards step -----------------------
  {
    wbs::RandomTape tape(108);
    tape.set_logging(false);
    auto items = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
    wbs::stream::TurnstileStream s;
    s.reserve(items.size());
    for (const auto& u : items) s.push_back({u.item, 1});

    wbs::engine::ClientOptions opts =
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/4);
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) return;
    const size_t batch = 32768;
    const size_t half = (s.size() / 2 / batch) * batch;

    auto replay_window = [&](size_t begin, size_t end) -> double {
      const auto w0 = clock::now();
      for (size_t off = begin; off < end; off += batch) {
        if (!client.value()
                 ->Submit(s.data() + off, std::min(batch, end - off))
                 .ok()) {
          return 0;
        }
      }
      if (!client.value()->Flush().ok()) return 0;
      const auto w1 = clock::now();
      const double seconds =
          std::chrono::duration<double>(w1 - w0).count();
      return seconds > 0 ? double(end - begin) / seconds : 0;
    };

    const double ups_before = replay_window(0, half);
    const auto a0 = clock::now();
    wbs::Status grown = client.value()->AddShards(4);
    const auto a1 = clock::now();
    const double ups_after = replay_window(half, s.size());
    (void)client.value()->Finish();
    if (!grown.ok() || ups_before == 0 || ups_after == 0) return;
    auto info = client.value()->Topology();
    wbs::bench::JsonRow()
        .Field("bench", "engine_reshard")
        .Field("op", "add_shards")
        .Field("shards_before", uint64_t(4))
        .Field("shards_after", uint64_t(info.num_shards))
        .Field("topology_generation", info.generation)
        .Field("updates", uint64_t(s.size()))
        .Field("updates_per_sec_before", ups_before)
        .Field("add_shards_barrier_us",
               std::chrono::duration<double, std::micro>(a1 - a0).count())
        .Field("updates_per_sec_after", ups_after)
        .Emit();
  }
}

// ------------------------------------------------------------- failover --
//
// The availability contract as a number: a supervised tcp shard is
// killed mid-stream (clean death and torn-frame death), and the row reports
// how long each recovery phase took — heartbeat detection (crash ->
// kDead), MoveShard re-home from the last checkpoint (kDead -> recovered),
// and the headline crash -> first correct answer latency, where "correct"
// means a non-stale merged estimate equal to a never-crashed in-process
// reference (ams_f2 is state-exact across recovery, so equality is exact).
void RunEngineFailoverBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_failover",
      "supervised tcp shard killed mid-stream: heartbeat detection, "
      "MoveShard re-home from the last checkpoint, and crash-to-first-"
      "correct-answer latency, with exact bounded-loss accounting");
  using clock = std::chrono::steady_clock;
  const uint64_t universe = 4096;
  const size_t ingest = size_t(std::min<uint64_t>(num_updates, 200000));

  wbs::RandomTape tape(109);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, ingest, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  // Reference answer from a plain in-process engine over the same stream:
  // the recovered engine must reproduce this bit-for-bit once loss is zero.
  double want = 0;
  {
    auto ref = wbs::engine::Client::Create(
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/0));
    if (!ref.ok()) return;
    auto handle = ref.value()->Handle("ams_f2");
    if (!handle.ok() || !ref.value()->Submit(s).ok() ||
        !ref.value()->Flush().ok()) {
      return;
    }
    auto est = ref.value()->QueryScalar(handle.value());
    if (!est.ok()) return;
    want = est.value().value;
    (void)ref.value()->Finish();
  }

  for (const bool torn : {false, true}) {
    wbs::engine::ClientOptions opts;
    opts.ingest.num_shards = 4;
    opts.ingest.num_threads = 2;
    opts.ingest.sketches = {"ams_f2"};
    opts.ingest.config.universe = universe;
    opts.ingest.config.seed = 2025;
    opts.ingest.backend = wbs::engine::TcpBackendFactory();
    opts.ingest.failover.heartbeat_interval_ms = 5;
    opts.ingest.failover.heartbeat_timeout_ms = 25;
    opts.ingest.failover.dead_after_misses = 2;
    opts.ingest.failover.auto_recover = true;
    opts.ingest.failover.recovery_backend = wbs::engine::TcpBackendFactory();
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) continue;
    auto handle = client.value()->Handle("ams_f2");
    if (!handle.ok()) continue;

    // Full stream, then an explicit checkpoint at the barrier: the
    // exposure window is empty, so the measured recovery is loss-free and
    // the post-recovery answer must equal the reference exactly.
    bool fed = true;
    for (size_t off = 0; off < s.size() && fed; off += 32768) {
      fed = client.value()
                ->Submit(s.data() + off,
                         std::min<size_t>(32768, s.size() - off))
                .ok();
    }
    if (!fed || !client.value()->Flush().ok() ||
        !client.value()->Checkpoint().ok()) {
      continue;
    }

    const auto poll_until = [](const std::function<bool()>& pred) {
      const auto deadline =
          clock::now() + std::chrono::seconds(30);
      while (clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      return pred();
    };

    const auto t_crash = clock::now();
    if (!client.value()->InjectShardCrash(0, torn).ok()) continue;
    // Detection and re-home can both complete inside ONE supervisor sweep,
    // faster than an external poll can observe the transient kSuspect /
    // kDead states — so the wait condition is the monotone recovery
    // counter, and the phase timeline comes from the recorded trace spans:
    // the explicit checkpoint above ends microseconds before the crash
    // (its end anchors t=0), shard_dead marks detection, recover_shard
    // times the re-home.
    const bool rehomed = poll_until([&] {
      return client.value()->Health(0).recoveries >= 1;
    });
    double first_correct_us = 0;
    const bool correct = rehomed && poll_until([&] {
      auto est = client.value()->QueryScalar(handle.value());
      if (!est.ok() || est.value().stale || est.value().value != want) {
        return false;
      }
      first_correct_us = std::chrono::duration<double, std::micro>(
                             clock::now() - t_crash)
                             .count();
      return true;
    });
    const auto health = client.value()->Health(0);
    uint64_t ckpt_end_us = 0, dead_at_us = 0, rehome_us = 0;
    for (const auto& span : client.value()->TraceSpans()) {
      if (span.name == "checkpoint") {
        ckpt_end_us = span.start_us + span.duration_us;
      } else if (span.name == "shard_dead" && dead_at_us == 0) {
        dead_at_us = span.start_us;
      } else if (span.name == "recover_shard" && rehome_us == 0) {
        rehome_us = span.duration_us;
      }
    }
    (void)client.value()->Finish();
    if (!correct || dead_at_us < ckpt_end_us) continue;
    wbs::bench::JsonRow()
        .Field("bench", "engine_failover")
        .Field("death", torn ? "torn" : "clean")
        .Field("shards", uint64_t(4))
        .Field("ingested_updates", uint64_t(s.size()))
        .Field("detection_us", dead_at_us - ckpt_end_us)
        .Field("rehome_us", rehome_us)
        .Field("first_correct_answer_us", first_correct_us)
        .Field("updates_lost", health.updates_lost_total)
        .Field("recoveries", health.recoveries)
        .Emit();
  }
}

// ------------------------------------------------------------ autoscale --
//
// The control plane's reaction as a number. A 2-shard engine with the live
// controller (tight evaluation period, watermark below the offered load)
// ingests a full-speed Zipf stream; the rows report how long the engine
// took to rebalance itself (first topology-generation change after the
// load began), the p99 per-batch submit latency while the controller was
// resharding under the stream, how many decisions it took, and that the
// final answer still equals a static reference (ams_f2 is linear, so
// equality is exact) with zero lost acked updates. A second row prices the
// slot-heat sampling the slot-move decisions feed on (contract: <= 2%
// throughput overhead at shift=6).

double RunEngineSlotSamplingMode(size_t slot_sample_shift,
                                 const wbs::stream::TurnstileStream& s,
                                 uint64_t universe) {
  const size_t shards = 4, threads = 2, batch = 32768, producers = 4;
  wbs::engine::ClientOptions opts =
      EngineClientOptions(universe, shards, threads);
  opts.ingest.slot_sample_shift = slot_sample_shift;
  auto client = wbs::engine::Client::Create(opts);
  if (!client.ok()) return 0;
  std::atomic<uint64_t> submit_errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pthreads;
  pthreads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    pthreads.emplace_back([&, p] {
      for (size_t off = p * batch; off < s.size();
           off += producers * batch) {
        const size_t n = std::min(batch, s.size() - off);
        if (!client.value()->Submit(s.data() + off, n).ok()) {
          ++submit_errors;
          return;
        }
      }
    });
  }
  for (auto& t : pthreads) t.join();
  wbs::Status st = client.value()->Flush();
  const auto t1 = std::chrono::steady_clock::now();
  if (st.ok()) st = client.value()->Finish();
  if (!st.ok() || submit_errors.load() > 0) return 0;
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return seconds > 0 ? double(s.size()) / seconds : 0;
}

void RunEngineAutoscaleBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_autoscale",
      "live controller under a full-speed Zipf stream: time to the first "
      "self-issued rebalance, p99 submit latency during it, and the "
      "slot-heat sampling overhead (contract: <= 2%)");
  using clock = std::chrono::steady_clock;
  const uint64_t universe = 4096;
  const size_t ingest = size_t(std::min<uint64_t>(num_updates, 500000));

  wbs::RandomTape tape(113);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, ingest, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  // Reference answer: any topology history must reproduce this exactly.
  double want = 0;
  {
    auto ref = wbs::engine::Client::Create(
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/0));
    if (!ref.ok()) return;
    auto handle = ref.value()->Handle("ams_f2");
    if (!handle.ok() || !ref.value()->Submit(s).ok() ||
        !ref.value()->Flush().ok()) {
      return;
    }
    auto est = ref.value()->QueryScalar(handle.value());
    if (!est.ok()) return;
    want = est.value().value;
    (void)ref.value()->Finish();
  }

  {
    wbs::engine::ClientOptions opts =
        EngineClientOptions(universe, /*shards=*/2, /*threads=*/2);
    opts.ingest.slot_sample_shift = 6;
    opts.ingest.autoscale.enabled = true;
    opts.ingest.autoscale.evaluation_interval_ms = 2;
    opts.ingest.autoscale.high_watermark_updates_per_sec = 50'000.0;
    opts.ingest.autoscale.cooldown_ms = 20;
    opts.ingest.autoscale.max_shards = 8;
    opts.ingest.autoscale.scale_step = 2;
    auto client = wbs::engine::Client::Create(opts);
    if (!client.ok()) return;
    auto handle = client.value()->Handle("ams_f2");
    if (!handle.ok()) return;

    const uint64_t gen0 = client.value()->Topology().generation;
    const size_t batch = 8192;
    std::vector<double> submit_us;
    submit_us.reserve(s.size() / batch + 1);
    double rebalance_us = 0;
    bool fed = true;
    const auto t_start = clock::now();
    for (size_t off = 0; off < s.size() && fed; off += batch) {
      const auto t0 = clock::now();
      fed = client.value()
                ->Submit(s.data() + off, std::min(batch, s.size() - off))
                .ok();
      submit_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - t0)
              .count());
      if (rebalance_us == 0 &&
          client.value()->Topology().generation > gen0) {
        rebalance_us = std::chrono::duration<double, std::micro>(
                           clock::now() - t_start)
                           .count();
      }
    }
    if (!fed || !client.value()->Flush().ok()) return;
    // A short stream can outrun the controller's first period; give it one
    // more tick so the row always reports a rebalance.
    const auto deadline = clock::now() + std::chrono::seconds(5);
    while (rebalance_us == 0 && clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (client.value()->Topology().generation > gen0) {
        rebalance_us = std::chrono::duration<double, std::micro>(
                           clock::now() - t_start)
                           .count();
      }
    }
    // Finish first: it stops the controller, so the decision counters, the
    // final topology, and the answer are one consistent cut.
    (void)client.value()->Finish();
    wbs::engine::MetricsSnapshot snap = client.value()->Metrics();
    const auto topo = client.value()->Topology();
    auto est = client.value()->QueryScalar(handle.value());
    if (!est.ok()) return;
    std::sort(submit_us.begin(), submit_us.end());
    const double p99 =
        submit_us.empty()
            ? 0
            : submit_us[size_t(0.99 * double(submit_us.size() - 1))];
    wbs::bench::JsonRow()
        .Field("bench", "engine_autoscale")
        .Field("mode", "step_scaleout")
        .Field("ingested_updates", uint64_t(s.size()))
        .Field("shards_before", uint64_t(2))
        .Field("shards_after", uint64_t(topo.num_shards))
        .Field("time_to_rebalance_us", rebalance_us)
        .Field("p99_submit_us_during_rebalance", p99)
        .Field("decisions",
               snap.Value("engine.autoscaler.scaleouts_total") +
                   snap.Value("engine.autoscaler.slot_moves_total"))
        .Field("cooldown_suppressed",
               snap.Value("engine.autoscaler.cooldown_suppressed_total"))
        .Field("updates_lost",
               snap.Value("engine.failover.updates_lost_total"))
        .Field("answer_exact", est.value().value == want ? 1 : 0)
        .Emit();
  }

  // Slot-heat sampling overhead: interleaved best-of repetitions, same
  // damping as the metrics-overhead row.
  double ups_off = 0, ups_on = 0;
  for (int rep = 0; rep < 3; ++rep) {
    ups_off = std::max(ups_off, RunEngineSlotSamplingMode(0, s, universe));
    ups_on = std::max(ups_on, RunEngineSlotSamplingMode(6, s, universe));
  }
  if (ups_on == 0 || ups_off == 0) return;
  wbs::bench::JsonRow()
      .Field("bench", "engine_autoscale")
      .Field("mode", "slot_sampling_overhead")
      .Field("slot_sample_shift", uint64_t(6))
      .Field("updates", uint64_t(s.size()))
      .Field("updates_per_sec_sampled", ups_on)
      .Field("updates_per_sec_unsampled", ups_off)
      .Field("overhead_pct", (ups_off - ups_on) / ups_off * 100.0)
      .Emit();
}

// ---------------------------------------------------------- merge cache --
//
// Cold rebuild vs cached re-query vs incremental single-shard refold of the
// merged summary, on an engine holding a replayed Zipf stream.

void RunMergeCacheBench(uint64_t num_updates) {
  wbs::bench::Banner(
      "merge_cache",
      "incremental merged-summary cache: cold rebuild vs cache hit vs "
      "single-dirty-shard refold");
  const uint64_t universe = 4096;
  wbs::RandomTape tape(103);
  tape.set_logging(false);
  auto zipf = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);

  auto client = wbs::engine::Client::Create(
      EngineClientOptions(universe, /*shards=*/8, /*threads=*/0));
  if (!client.ok() || !ReplayItems(client.value().get(), zipf, 32768).ok() ||
      !client.value()->Flush().ok()) {
    std::fprintf(stderr, "merge cache bench setup failed\n");
    return;
  }

  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto handle = client.value()->Handle(name).value();
    auto t0 = std::chrono::steady_clock::now();
    auto cold = client.value()->QueryScalar(handle);
    auto t1 = std::chrono::steady_clock::now();
    const double cold_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    const int kWarm = 1000;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kWarm; ++i) {
      auto warm = client.value()->QueryScalar(handle);
      if (!warm.ok()) return;
    }
    t1 = std::chrono::steady_clock::now();
    const double warm_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kWarm;

    // Dirty exactly one shard, then refold: linear sketches take the
    // UnmergeFrom/MergeFrom path instead of an all-shards rebuild.
    wbs::stream::TurnstileStream one{{7, 1}};
    if (!client.value()->Submit(one).ok() || !client.value()->Flush().ok()) {
      return;
    }
    t0 = std::chrono::steady_clock::now();
    auto inc = client.value()->QueryScalar(handle);
    t1 = std::chrono::steady_clock::now();
    const double inc_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    // Cache effectiveness counters come off the engine's metrics surface.
    const auto metrics = client.value()->Metrics();
    const std::string prefix =
        std::string("engine.sketch.") + name + ".merge_cache.";
    wbs::bench::JsonRow row;
    row.Field("bench", "merge_cache")
        .Field("sketch", name)
        .Field("cold_us", cold_us)
        .Field("cached_us", warm_us)
        .Field("cached_speedup", warm_us > 0 ? cold_us / warm_us : 0)
        .Field("one_dirty_shard_us", inc_us)
        .Field("summary_ok", cold.ok() && inc.ok())
        .Field("cache_hits", metrics.Value(prefix + "hits_total"))
        .Field("cache_incremental", metrics.Value(prefix + "incremental_total"))
        .Field("cache_rebuilds", metrics.Value(prefix + "rebuilds_total"));
    row.Emit();
  }
  (void)client.value()->Finish();
}

// ------------------------------------------------------ metrics overhead --
//
// The observability overhead contract, priced: the same multi-producer Zipf
// workload with the engine.* instruments live (the default) vs
// IngestorOptions::metrics_enabled=false (every instrumentation site and
// its clock reads skipped — the runtime stand-in for the
// WBS_ENGINE_METRICS_DISABLED compile-out, measurable in one binary). The
// row guards the contract that instrumentation costs <= 2% updates/sec.

double RunEngineMetricsMode(bool metrics_enabled,
                            const wbs::stream::TurnstileStream& s,
                            uint64_t universe) {
  const size_t shards = 8, threads = 4, batch = 32768, producers = 4;
  wbs::engine::ClientOptions opts =
      EngineClientOptions(universe, shards, threads);
  opts.ingest.metrics_enabled = metrics_enabled;
  auto client = wbs::engine::Client::Create(opts);
  if (!client.ok()) {
    std::fprintf(stderr, "engine client: %s\n",
                 client.status().ToString().c_str());
    return 0;
  }
  std::atomic<uint64_t> submit_errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pthreads;
  pthreads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    pthreads.emplace_back([&, p] {
      for (size_t off = p * batch; off < s.size();
           off += producers * batch) {
        const size_t n = std::min(batch, s.size() - off);
        if (!client.value()->Submit(s.data() + off, n).ok()) {
          ++submit_errors;
          return;
        }
      }
    });
  }
  for (auto& t : pthreads) t.join();
  wbs::Status st = client.value()->Flush();
  const auto t1 = std::chrono::steady_clock::now();
  if (st.ok()) st = client.value()->Finish();
  if (!st.ok() || submit_errors.load() > 0) {
    std::fprintf(stderr, "engine metrics overhead: %s\n",
                 st.ToString().c_str());
    return 0;
  }
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return seconds > 0 ? double(s.size()) / seconds : 0;
}

void RunEngineMetricsOverhead(uint64_t num_updates) {
  wbs::bench::Banner(
      "engine_metrics_overhead",
      "observability cost: multi-producer Zipf updates/sec with engine.* "
      "instruments live vs metrics_enabled=false (contract: <= 2%)");
  const uint64_t universe = 4096;
  wbs::RandomTape tape(109);
  tape.set_logging(false);
  auto items = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
  wbs::stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  // Interleave repetitions and take each mode's best run, damping scheduler
  // noise that would otherwise dwarf a low-single-digit-percent effect.
  double ups_on = 0, ups_off = 0;
  for (int rep = 0; rep < 3; ++rep) {
    ups_off = std::max(ups_off, RunEngineMetricsMode(false, s, universe));
    ups_on = std::max(ups_on, RunEngineMetricsMode(true, s, universe));
  }
  if (ups_on == 0 || ups_off == 0) return;
  const double overhead_pct = (ups_off - ups_on) / ups_off * 100.0;
  wbs::bench::JsonRow()
      .Field("bench", "engine_metrics_overhead")
      .Field("shards", uint64_t(8))
      .Field("threads", uint64_t(4))
      .Field("producers", uint64_t(4))
      .Field("batch", uint64_t(32768))
      .Field("updates", uint64_t(s.size()))
      .Field("updates_per_sec_instrumented", ups_on)
      .Field("updates_per_sec_disabled", ups_off)
      .Field("overhead_pct", overhead_pct)
      .Field("metrics_compiled", wbs::engine::kMetricsCompiled)
      .Emit();
}

// ------------------------------------------------------- Barrett kernels --
//
// The Barrett-reduced Z_q kernels against the __int128 `% q` baselines, on
// the same data, with bit-identity asserted inline: (1) scalar MulMod,
// (2) the SIS column update (old row-major Entry()+MulMod loop vs the
// production contiguous-column Barrett kernel), (3) the AMS update (per-
// update row loop vs ApplyRun).

void RunBarrettKernels() {
  wbs::bench::Banner(
      "kernel_barrett",
      "Barrett-reduced linear-sketch kernels vs the MulMod baseline "
      "(bit-identical by construction, asserted on the same inputs)");
  using clock = std::chrono::steady_clock;

  // --- scalar MulMod vs BarrettQ::MulMod, q just above 2^61.
  {
    const uint64_t q = wbs::NextPrime(uint64_t{1} << 61);
    const wbs::BarrettQ bq(q);
    const size_t kN = 1 << 16;
    std::vector<uint64_t> b(kN);
    uint64_t s = 42;
    for (size_t i = 0; i < kN; ++i) b[i] = wbs::SplitMix64(&s) % q;
    // Serial dependency chain: each product feeds the next multiplicand, so
    // the compiler cannot hoist the (rep-invariant) loop body; both paths
    // run the identical operation sequence.
    const int kReps = 20;
    uint64_t acc_base = 1, acc_barrett = 1;
    auto t0 = clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        acc_base = wbs::MulMod(acc_base | 1, b[i], q);
      }
    }
    auto t1 = clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < kN; ++i) {
        acc_barrett = bq.MulMod(acc_barrett | 1, b[i]);
      }
    }
    auto t2 = clock::now();
    const double ops = double(kN) * kReps;
    const double base_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
    const double barrett_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() / ops;
    wbs::bench::JsonRow()
        .Field("bench", "kernel_barrett")
        .Field("kernel", "mulmod_scalar")
        .Field("q", q)
        .Field("baseline_ns_per_op", base_ns)
        .Field("barrett_ns_per_op", barrett_ns)
        .Field("speedup", barrett_ns > 0 ? base_ns / barrett_ns : 0)
        .Field("bit_identical", acc_base == acc_barrett)
        .Emit();
  }

  // --- SIS column update: old kernel (row-major cache walk, generic
  // MulMod/AddMod per entry) vs SisSketchVector::Update on a materialized
  // matrix (contiguous column, Barrett).
  {
    wbs::crypto::RandomOracle oracle(7);
    wbs::crypto::SisParams params{wbs::NextPrime(uint64_t{1} << 61), 64, 64,
                                  100};
    wbs::crypto::SisMatrix matrix(params, oracle, 1);
    matrix.Materialize();
    std::vector<uint64_t> row_major(params.rows * params.cols);
    for (size_t i = 0; i < params.rows; ++i) {
      for (size_t j = 0; j < params.cols; ++j) {
        row_major[i * params.cols + j] = matrix.Entry(i, j);
      }
    }
    const uint64_t q = params.q;
    const size_t kUpdates = 200000;
    std::vector<uint64_t> v_base(params.rows, 0);
    wbs::crypto::SisSketchVector v_new(&matrix);
    uint64_t s = 7;
    std::vector<std::pair<size_t, int64_t>> updates(kUpdates);
    for (auto& u : updates) {
      u.first = size_t(wbs::SplitMix64(&s) % params.cols);
      u.second = int64_t(wbs::SplitMix64(&s) % 2001) - 1000;
    }
    auto t0 = clock::now();
    for (const auto& [col, delta] : updates) {
      const uint64_t d = wbs::ReduceSigned(delta, q);
      for (size_t i = 0; i < params.rows; ++i) {
        v_base[i] = wbs::AddMod(
            v_base[i], wbs::MulMod(d, row_major[i * params.cols + col], q), q);
      }
    }
    auto t1 = clock::now();
    for (const auto& [col, delta] : updates) {
      (void)v_new.Update(col, delta);
    }
    auto t2 = clock::now();
    const double base_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kUpdates;
    const double barrett_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() / kUpdates;
    wbs::bench::JsonRow()
        .Field("bench", "kernel_barrett")
        .Field("kernel", "sis_column_update")
        .Field("q", q)
        .Field("rows", uint64_t(params.rows))
        .Field("baseline_ns_per_update", base_ns)
        .Field("barrett_ns_per_update", barrett_ns)
        .Field("speedup", barrett_ns > 0 ? base_ns / barrett_ns : 0)
        .Field("bit_identical", v_base == v_new.value())
        .Emit();
  }

  // --- AMS update: per-update Update() vs the batched ApplyRun kernel.
  {
    const uint64_t universe = uint64_t{1} << 20;
    wbs::RandomTape tape_a(9), tape_b(9);
    tape_a.set_logging(false);
    tape_b.set_logging(false);
    wbs::moments::AmsF2Sketch ams_base(universe, 48, &tape_a);
    wbs::moments::AmsF2Sketch ams_run(universe, 48, &tape_b);
    const size_t kUpdates = 500000;
    std::vector<wbs::stream::TurnstileUpdate> ups(kUpdates);
    uint64_t s = 11;
    for (auto& u : ups) {
      u.item = wbs::SplitMix64(&s) % universe;
      u.delta = int64_t(wbs::SplitMix64(&s) % 5) - 2;
    }
    auto t0 = clock::now();
    for (const auto& u : ups) (void)ams_base.Update(u);
    auto t1 = clock::now();
    (void)ams_run.ApplyRun(ups.data(), ups.size());
    auto t2 = clock::now();
    const double base_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kUpdates;
    const double run_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() / kUpdates;
    wbs::bench::JsonRow()
        .Field("bench", "kernel_barrett")
        .Field("kernel", "ams_apply_run")
        .Field("rows", uint64_t(48))
        .Field("baseline_ns_per_update", base_ns)
        .Field("batched_ns_per_update", run_ns)
        .Field("speedup", run_ns > 0 ? base_ns / run_ns : 0)
        .Field("bit_identical", ams_base.Query() == ams_run.Query())
        .Emit();
  }
}

// ----------------------------------------------------------- SIMD kernels --
//
// Every runnable dispatch table (common/simd.h) against the scalar table on
// identical inputs: the two mod-q kernels, the AMS row mix, and the 8-wide
// SHA-256 batch. One row per (kernel, op) with ns/op for both paths, the
// speedup, the lane utilization (speedup / vector lanes — how much of the
// theoretical lane win survives memory traffic and tails), and an inline
// bit-identity check on the outputs. updates_per_sec_per_core is the
// single-threaded kernel rate.

void EmitKernelRow(const char* op, const wbs::simd::KernelDispatch& k,
                   double scalar_ns, double simd_ns, bool identical) {
  const double speedup = simd_ns > 0 ? scalar_ns / simd_ns : 0;
  wbs::bench::JsonRow()
      .Field("bench", "kernel_simd")
      .Field("op", op)
      .Field("kernel", k.name)
      .Field("lanes", uint64_t(k.lanes))
      .Field("cpu_features", wbs::simd::DetectedCpuFeatures())
      .Field("scalar_ns_per_op", scalar_ns)
      .Field("simd_ns_per_op", simd_ns)
      .Field("speedup", speedup)
      .Field("lane_utilization", k.lanes > 0 ? speedup / k.lanes : 0)
      .Field("updates_per_sec_per_core", simd_ns > 0 ? 1e9 / simd_ns : 0)
      .Field("bit_identical", identical)
      .Emit();
}

void RunKernelSimd() {
  wbs::bench::Banner("kernel_simd",
                     "runtime-dispatched SIMD kernels vs the scalar table "
                     "(bit-identity asserted on the same inputs)");
  using clock = std::chrono::steady_clock;
  const auto kernels = wbs::simd::AvailableKernels();
  const wbs::simd::KernelDispatch* scalar = kernels.back();
  const uint64_t q = wbs::NextPrime(uint64_t{1} << 61);
  const wbs::BarrettQ bq(q);
  const size_t kN = 1 << 12;
  const int kReps = 400;
  uint64_t s = 42;
  std::vector<uint64_t> a0(kN), add(kN);
  for (auto& x : a0) x = wbs::SplitMix64(&s) % q;
  for (auto& x : add) x = wbs::SplitMix64(&s) % q;

  for (const auto* k : kernels) {
    // accumulate_mod: acc[i] = (acc[i] + add[i]) mod q over kN entries.
    {
      std::vector<uint64_t> acc_s = a0, acc_k = a0;
      auto t0 = clock::now();
      for (int r = 0; r < kReps; ++r) {
        scalar->accumulate_mod(acc_s.data(), add.data(), kN, q);
      }
      auto t1 = clock::now();
      for (int r = 0; r < kReps; ++r) {
        k->accumulate_mod(acc_k.data(), add.data(), kN, q);
      }
      auto t2 = clock::now();
      const double ops = double(kN) * kReps;
      EmitKernelRow(
          "accumulate_mod", *k,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / ops,
          std::chrono::duration<double, std::nano>(t2 - t1).count() / ops,
          acc_s == acc_k);
    }
    // sis_column_update: v += d * col (mod q), the SIS hot loop. ns/op is
    // per column ENTRY (one Shoup multiply-add); the ISSUE's >= 2x-on-AVX2
    // acceptance bar reads off this row's speedup.
    {
      std::vector<uint64_t> col(kN), shoup(kN);
      for (size_t i = 0; i < kN; ++i) {
        col[i] = wbs::SplitMix64(&s) % q;
        shoup[i] = uint64_t((wbs::u128(col[i]) << 64) / q);
      }
      std::vector<uint64_t> v_s = a0, v_k = a0;
      uint64_t d = 1;
      auto t0 = clock::now();
      for (int r = 0; r < kReps; ++r) {
        scalar->sis_column_update(v_s.data(), col.data(), shoup.data(), kN,
                                  d | 1, bq);
      }
      auto t1 = clock::now();
      for (int r = 0; r < kReps; ++r) {
        k->sis_column_update(v_k.data(), col.data(), shoup.data(), kN, d | 1,
                             bq);
      }
      auto t2 = clock::now();
      const double ops = double(kN) * kReps;
      EmitKernelRow(
          "sis_column_update", *k,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / ops,
          std::chrono::duration<double, std::nano>(t2 - t1).count() / ops,
          v_s == v_k);
    }
    // ams_row_mix: 48 counters x kN-update run (ns/op = per (row, update)
    // sign-and-add).
    {
      const size_t kRows = 48;
      std::vector<uint64_t> mix(kN);
      std::vector<int64_t> deltas(kN);
      for (size_t i = 0; i < kN; ++i) {
        mix[i] = wbs::SplitMix64(&s);
        deltas[i] = int64_t(wbs::SplitMix64(&s) % 5) - 2;
      }
      std::vector<int64_t> c_s(kRows, 0), c_k(kRows, 0);
      const int kMixReps = 40;
      auto t0 = clock::now();
      for (int r = 0; r < kMixReps; ++r) {
        scalar->ams_row_mix(c_s.data(), kRows, mix.data(), deltas.data(), kN);
      }
      auto t1 = clock::now();
      for (int r = 0; r < kMixReps; ++r) {
        k->ams_row_mix(c_k.data(), kRows, mix.data(), deltas.data(), kN);
      }
      auto t2 = clock::now();
      const double ops = double(kN) * kRows * kMixReps;
      EmitKernelRow(
          "ams_row_mix", *k,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / ops,
          std::chrono::duration<double, std::nano>(t2 - t1).count() / ops,
          c_s == c_k);
    }
    // sha256_salted8: eight one-block compressions per call (ns/op = per
    // message).
    {
      const size_t kBatches = 4096;
      uint64_t items[8], out_s[8], out_k[8];
      bool identical = true;
      uint64_t sink = 0;
      auto fill = [&](uint64_t base) {
        for (int i = 0; i < 8; ++i) items[i] = base + uint64_t(i);
      };
      auto t0 = clock::now();
      for (size_t b = 0; b < kBatches; ++b) {
        fill(b * 8);
        scalar->sha256_salted8(7, items, out_s);
        sink ^= out_s[0];
      }
      auto t1 = clock::now();
      for (size_t b = 0; b < kBatches; ++b) {
        fill(b * 8);
        k->sha256_salted8(7, items, out_k);
        sink ^= out_k[0];
      }
      auto t2 = clock::now();
      fill(123456);
      scalar->sha256_salted8(7, items, out_s);
      k->sha256_salted8(7, items, out_k);
      for (int i = 0; i < 8; ++i) identical &= out_s[i] == out_k[i];
      const double ops = double(kBatches) * 8;
      EmitKernelRow(
          "sha256_salted8", *k,
          std::chrono::duration<double, std::nano>(t1 - t0).count() / ops,
          std::chrono::duration<double, std::nano>(t2 - t1).count() / ops,
          identical && sink != 1);  // sink: keep the loops alive
    }
  }
}

// ---------------------------------------------------------- scatter kernel --
//
// The ingestion scatter step: (a) micro — the per-item hash+bucket cost of
// the scalar TopologyView::SlotOf loop vs the 8-wide hash_items kernel, and
// (b) end-to-end — full-engine ingest forced to the scalar table vs the
// auto-selected one, so the row shows how much of the kernel win survives
// the rest of the pipeline.

void ForceKernelEnv(const char* name) {
  if (name == nullptr) {
    ::unsetenv("WBS_ENGINE_KERNEL");
  } else {
    ::setenv("WBS_ENGINE_KERNEL", name, 1);
  }
  wbs::simd::internal::ReselectKernels();
}

void RunKernelScatter(uint64_t num_updates) {
  wbs::bench::Banner("kernel_scatter",
                     "8-wide hash+bucket scatter vs the scalar SlotOf loop, "
                     "micro and end-to-end");
  using clock = std::chrono::steady_clock;
  const auto& kern = wbs::simd::Kernels();
  const size_t kItems = 1 << 16;
  const size_t kSlots = 64;  // 4 shards x 16 slots, the default topology
  uint64_t s = 5;
  std::vector<uint64_t> items(kItems);
  for (auto& it : items) it = wbs::SplitMix64(&s);

  // Each computed slot is consumed through DoNotOptimize in BOTH loops:
  // the real scatter interleaves every slot with a push_back and a heat
  // sample, so neither path gets to auto-vectorize across items — without
  // the barrier the compiler SIMD-izes the inline SlotOf loop and the
  // micro measures codegen luck instead of the kernel.
  std::vector<uint32_t> slot_scalar(kItems), slot_simd(kItems);
  const int kReps = 64;
  auto t0 = clock::now();
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < kItems; ++i) {
      slot_scalar[i] =
          uint32_t(wbs::engine::TopologyView::SlotOf(items[i], kSlots));
      benchmark::DoNotOptimize(slot_scalar[i]);
    }
  }
  auto t1 = clock::now();
  uint64_t hashes[8];
  for (int r = 0; r < kReps; ++r) {
    for (size_t base = 0; base < kItems; base += 8) {
      const size_t chunk = std::min<size_t>(8, kItems - base);
      kern.hash_items(items.data() + base, chunk, hashes);
      for (size_t j = 0; j < chunk; ++j) {
        slot_simd[base + j] = uint32_t(hashes[j] % kSlots);
        benchmark::DoNotOptimize(slot_simd[base + j]);
      }
    }
  }
  auto t2 = clock::now();
  const double ops = double(kItems) * kReps;
  const double scalar_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  const double simd_ns =
      std::chrono::duration<double, std::nano>(t2 - t1).count() / ops;
  wbs::bench::JsonRow()
      .Field("bench", "kernel_scatter")
      .Field("op", "hash_slot_micro")
      .Field("kernel", kern.name)
      .Field("cpu_features", wbs::simd::DetectedCpuFeatures())
      .Field("num_slots", uint64_t(kSlots))
      .Field("scalar_ns_per_item", scalar_ns)
      .Field("simd_ns_per_item", simd_ns)
      .Field("speedup", simd_ns > 0 ? scalar_ns / simd_ns : 0)
      .Field("bit_identical", slot_scalar == slot_simd)
      .Emit();

  // End-to-end: same sharded inline ingest, scalar-forced vs auto kernels.
  const uint64_t universe = uint64_t{1} << 20;
  wbs::RandomTape tape(31);
  auto zipf = wbs::stream::ZipfStream(universe, num_updates, 1.2, &tape);
  auto run = [&](const char* forced) -> double {
    ForceKernelEnv(forced);
    auto client = wbs::engine::Client::Create(
        EngineClientOptions(universe, /*shards=*/4, /*threads=*/0));
    if (!client.ok()) return 0;
    const auto e0 = clock::now();
    wbs::Status st = ReplayItems(client.value().get(), zipf, 32768);
    if (st.ok()) st = client.value()->Finish();
    const auto e1 = clock::now();
    if (!st.ok()) return 0;
    return double(zipf.size()) /
           std::chrono::duration<double>(e1 - e0).count();
  };
  const double ups_scalar = run("scalar");
  const double ups_auto = run(nullptr);  // restores auto-selection
  wbs::bench::JsonRow()
      .Field("bench", "kernel_scatter")
      .Field("op", "engine_ingest_e2e")
      .Field("kernel", wbs::simd::Kernels().name)
      .Field("cpu_features", wbs::simd::DetectedCpuFeatures())
      .Field("shards", uint64_t(4))
      .Field("updates", uint64_t(zipf.size()))
      .Field("updates_per_sec_scalar", ups_scalar)
      .Field("updates_per_sec_auto", ups_auto)
      .Field("speedup", ups_scalar > 0 ? ups_auto / ups_scalar : 0)
      .Emit();
}

}  // namespace

int main(int argc, char** argv) {
  bool engine_only = false;
  bool benchmark_flags_present = false;
  uint64_t engine_updates = uint64_t{1} << 20;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--engine_only") == 0) {
      engine_only = true;
    } else if (std::strncmp(argv[i], "--engine_updates=", 17) == 0) {
      engine_updates = std::strtoull(argv[i] + 17, nullptr, 10);
    } else {
      benchmark_flags_present |=
          std::strncmp(argv[i], "--benchmark", 11) == 0;
      passthrough.push_back(argv[i]);
    }
  }
  // The multi-second engine sweep runs by default and with --engine_only,
  // but stays out of the way when the caller is targeting specific
  // microbenchmarks (--benchmark_filter, --benchmark_list_tests, ...).
  if (engine_only || !benchmark_flags_present) {
    RunEngineThroughput(engine_updates);
    RunEngineMixed(engine_updates);
    RunEngineMultiProducerSweep(engine_updates);
    RunEngineBackendSweep(engine_updates);
    RunEngineTcpBench(engine_updates);
    RunEngineReshardBench(engine_updates);
    RunEngineFailoverBench(engine_updates);
    RunEngineAutoscaleBench(engine_updates);
    RunWireSerializeBench(engine_updates);
    RunMergeCacheBench(engine_updates);
    RunEngineMetricsOverhead(engine_updates);
    RunBarrettKernels();
    RunKernelSimd();
    RunKernelScatter(engine_updates);
  }
  if (engine_only) return 0;
  int pargc = int(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
