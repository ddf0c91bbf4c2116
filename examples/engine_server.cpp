// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The typed multi-producer engine API serving three concurrent client
// workloads — the multi-tenant traffic shape the ROADMAP's production
// north star needs:
//
//   client A  Zipfian product traffic (insert-only, heavy skew),
//   client B  turnstile churn (a cache layer inserting and deleting
//             short-lived keys; its net contribution must cancel exactly),
//   client C  an adversarial tenant mounting the classic linear-counter
//             attack: +1/-1 across two coordinates of the same chunk, so
//             each touched chunk has live keys but net sum zero.
//
// Each client is its own PRODUCER THREAD calling engine::Client::Submit —
// the MPSC ticket path; no external serialization, no blocking on
// backpressure. A monitoring thread concurrently issues typed queries
// through handles resolved once at startup (quiescence-free snapshot
// reads). At the end the merged answers are scored against exact
// FrequencyOracle ground truth. The SIS-backed L0 sketch keeps client C's
// chunks visibly nonzero — cancelling it would require a short SIS kernel
// vector (Assumption 2.17) — while a naive per-chunk sum counter (the
// broken baseline from src/distinct/l0_estimator.h) reports every attacked
// chunk empty.
//
// The shard backend is selectable: --backend=inprocess (default) keeps the
// shards in this process; --backend=tcp runs every shard behind its own
// localhost TCP listener speaking the engine wire format; --backend=mixed
// alternates the two — same Client code, same answers, shard state
// crossing a process boundary where placed. --connect=<host:port> puts
// every shard on running engine_shardd daemons instead.
//
// While the tenants ingest, the main thread RESHARDS THE ENGINE LIVE:
// AddShards(2) grows the topology mid-traffic (slots rebalance onto the
// new shards) and MoveShard(0) hands shard 0 off to the OTHER kind of
// placement via the serialized-state transfer — producers never pause
// longer than one batch barrier, the monitor keeps querying throughout,
// and the final answers still match exact ground truth (the linear
// sketches are partition-independent, so the answer tables stay
// byte-identical across runs no matter where the barrier lands; only the
// information-theoretic space line varies, since per-shard counter
// magnitudes depend on how the suffix traffic split).
//
// Observability: --stats-interval=<ms> starts a live monitor that renders
// the engine's metric table to stderr every interval (and once more at
// shutdown); --stats-jsonl=<path> additionally appends every sample of
// every tick as one JSON object per line, stamped with a `t_us` offset —
// the machine-diffable stats stream CI validates. Both leave stdout
// untouched: the examples double as determinism probes and their stdout
// must stay byte-identical across runs.
//
// Autoscaling demo: --workload=step replays a Zipf stream whose paced
// submission rate jumps 4x halfway through (a traffic spike);
// --workload=diurnal modulates the rate sinusoidally while ROTATING the
// hot-key set every phase (the heavy head migrates across the hash
// slots). With --autoscale the engine runs its own control plane: the
// controller samples per-shard rates and valve pressure, scales out
// under the spike, and peels hot slots off imbalanced shards — no
// operator calls AddShards anywhere in the workload path. stdout stays a
// determinism probe (the linear families' merged answers are partition-
// independent, so they are byte-identical no matter when or how the
// controller reshards); everything timing-dependent (decisions taken,
// final shard count) goes to stderr.
//
//   $ ./examples/engine_server
//   $ ./examples/engine_server --backend=tcp
//   $ ./examples/engine_server --stats-interval=250 --stats-jsonl=stats.jsonl
//   $ ./examples/engine_server --workload=step --autoscale

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "distinct/l0_estimator.h"
#include "engine/client.h"
#include "engine/metrics.h"
#include "engine/remote_backend.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

namespace {

/// One stats tick: table to stderr, and (when `jsonl` is open) every sample
/// as a JSON line with a `t_us` run-offset field spliced in.
void EmitStats(const wbs::engine::Client& client, uint64_t t_us,
               std::ofstream* jsonl) {
  wbs::engine::MetricsSnapshot snap = client.Metrics();
  std::ostringstream table;
  table << "---- engine stats @ " << t_us << " us ----\n";
  snap.WriteTable(table);
  std::fputs(table.str().c_str(), stderr);
  if (jsonl != nullptr && jsonl->is_open()) {
    std::string line;
    for (const auto& sample : snap.samples) {
      line.clear();
      wbs::engine::AppendSampleJson(sample, &line);
      // The sample renders as {"metric":...}; stamp the tick's run offset
      // as the first field so every stream row is self-describing.
      line.insert(1, "\"t_us\":" + std::to_string(t_us) + ",");
      *jsonl << line << "\n";
    }
    jsonl->flush();
  }
}

/// Prints each failed stage of an ingest with its Status: a remote host's
/// reason (a protocol version it does not speak, say) travels inside it.
void PrintFailedStages(
    std::initializer_list<std::pair<const char*, wbs::Status>> stages) {
  for (const auto& [stage, status] : stages) {
    if (!status.ok()) {
      std::fprintf(stderr, "  %s: %s\n", stage, status.ToString().c_str());
    }
  }
}

/// The --workload=step|diurnal autoscaling demo. The stream CONTENT is
/// deterministic (fixed tape seed, fixed phase plan); only the submission
/// PACING shapes the load the controller sees. Returns the process exit
/// code: nonzero when ingest fails, any acked update is lost, or the
/// merged answers fail their query path — "converged" means the paced
/// stream fully ingested through whatever topology the controller chose
/// and the final answers still match the static ground truth.
int RunShapedWorkload(const std::string& workload, bool autoscale,
                      wbs::engine::BackendFactory backend,
                      uint64_t stats_interval_ms,
                      const std::string& stats_jsonl_path) {
  const uint64_t universe = uint64_t{1} << 14;
  wbs::RandomTape tape(2026);
  tape.set_logging(false);

  // ---- the phase plan ---------------------------------------------------
  // 8 phases of Zipf traffic. step: base pacing for the first half, then
  // a 4x rate spike. diurnal: sinusoidal pacing, and each phase ROTATES
  // the hot-key set by an eighth of the universe so the heavy head (and
  // its hash slots) migrates — the load-imbalance shape slot-level
  // migration exists for.
  const size_t kPhases = 8;
  const size_t kSlice = 512;          // updates per paced submission
  const uint64_t kBaseSleepUs = 2000;  // base pacing between slices
  std::vector<wbs::stream::TurnstileStream> phases(kPhases);
  std::vector<uint64_t> sleep_us(kPhases, kBaseSleepUs);
  for (size_t p = 0; p < kPhases; ++p) {
    auto items = wbs::stream::ZipfStream(universe, 12'000, 1.2, &tape);
    const uint64_t rotate =
        workload == "diurnal" ? (p * universe) / kPhases : 0;
    phases[p].reserve(items.size());
    for (const auto& u : items) {
      phases[p].push_back({(u.item + rotate) % universe, 1});
    }
    if (workload == "step") {
      if (p >= kPhases / 2) sleep_us[p] = kBaseSleepUs / 4;  // the 4x spike
    } else {
      // Rate swings sinusoidally between ~0.57x and 4x of base.
      const double m = 1.0 + 0.75 * std::sin((2.0 * M_PI * double(p)) /
                                             double(kPhases));
      sleep_us[p] = uint64_t(double(kBaseSleepUs) / (m * m));
    }
  }

  // ---- the engine, control plane included -------------------------------
  wbs::engine::ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2", "sis_l0"};
  opts.ingest.config =
      wbs::engine::SketchConfig{}.WithUniverse(universe).WithSeed(7);
  opts.ingest.backend = std::move(backend);
  opts.ingest.slot_sample_shift = 5;  // slot heat visible to the controller
  if (autoscale) {
    opts.ingest.autoscale.enabled = true;
    opts.ingest.autoscale.evaluation_interval_ms = 20;
    // The base phase paces ~128k updates/sec across 2 shards (~64k mean);
    // the 4x spike clears the watermark, the base rate never does. Valve
    // pressure (producers blocked on the inflight valve) also triggers,
    // so a machine too slow to hit the paced rate still scales.
    opts.ingest.autoscale.high_watermark_updates_per_sec = 120'000.0;
    opts.ingest.autoscale.low_watermark_updates_per_sec = 5'000.0;
    opts.ingest.autoscale.imbalance_ratio = 2.0;
    opts.ingest.autoscale.cooldown_ms = 150;
    opts.ingest.autoscale.max_shards = 6;
    opts.ingest.autoscale.ewma_alpha = 0.5;
  }
  auto client_or = wbs::engine::Client::Create(opts);
  if (!client_or.ok()) {
    std::fprintf(stderr, "engine: %s\n", client_or.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(client_or).value();
  auto l0_handle = client->Handle("sis_l0").value();
  auto f2_handle = client->Handle("ams_f2").value();

  wbs::stream::FrequencyOracle truth(universe);
  for (const auto& phase : phases) {
    for (const auto& u : phase) truth.Add(u.item, u.delta);
  }

  std::ofstream stats_jsonl;
  if (stats_interval_ms > 0 && !stats_jsonl_path.empty()) {
    stats_jsonl.open(stats_jsonl_path, std::ios::trunc);
    if (!stats_jsonl.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", stats_jsonl_path.c_str());
      return 2;
    }
  }
  const auto run_start = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::thread stats_thread;
  if (stats_interval_ms > 0) {
    stats_thread = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stats_interval_ms));
        const uint64_t t_us =
            uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - run_start)
                         .count());
        EmitStats(*client, t_us, &stats_jsonl);
      }
    });
  }

  // ---- paced ingest ------------------------------------------------------
  uint64_t submit_failures = 0;
  wbs::Status submit_error;  // the first failed Submit or Wait
  auto note_submit_error = [&](const wbs::Status& s) {
    ++submit_failures;
    if (submit_error.ok()) submit_error = s;
  };
  wbs::engine::IngestTicket last{};
  for (size_t p = 0; p < kPhases; ++p) {
    const auto& phase = phases[p];
    for (size_t off = 0; off < phase.size(); off += kSlice) {
      auto t = client->Submit(phase.data() + off,
                              std::min(kSlice, phase.size() - off));
      if (!t.ok()) {
        note_submit_error(t.status());
        break;
      }
      last = t.value();
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us[p]));
    }
  }
  if (wbs::Status w = client->Wait(last); !w.ok()) note_submit_error(w);

  stop.store(true, std::memory_order_relaxed);
  if (stats_thread.joinable()) {
    stats_thread.join();
    const uint64_t t_us =
        uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - run_start)
                     .count());
    EmitStats(*client, t_us, &stats_jsonl);
  }

  // Everything timing-dependent goes to stderr: how often the controller
  // acted, and the topology it converged to, depend on machine speed.
  wbs::engine::MetricsSnapshot snap = client->Metrics();
  auto topo = client->Topology();
  std::fprintf(
      stderr,
      "autoscale: %llu evaluations, %llu scale-outs (+%llu shards), "
      "%llu slot moves (%llu slots), %llu suppressed by cooldown; "
      "final topology: %zu shards over %zu slots (generation %llu)\n",
      (unsigned long long)snap.Value("engine.autoscaler.evaluations_total"),
      (unsigned long long)snap.Value("engine.autoscaler.scaleouts_total"),
      (unsigned long long)snap.Value("engine.autoscaler.shards_added_total"),
      (unsigned long long)snap.Value("engine.autoscaler.slot_moves_total"),
      (unsigned long long)snap.Value("engine.autoscaler.slots_moved_total"),
      (unsigned long long)
          snap.Value("engine.autoscaler.cooldown_suppressed_total"),
      topo.num_shards, topo.num_slots, (unsigned long long)topo.generation);
  for (const auto& span : client->TraceSpans()) {
    if (span.name != "autoscale.decision") continue;
    std::fprintf(stderr,
                 "autoscale.decision: kind=%llu mean=%llu max=%llu "
                 "generation=%llu\n",
                 (unsigned long long)span.Attr("kind"),
                 (unsigned long long)span.Attr("mean_rate"),
                 (unsigned long long)span.Attr("max_rate"),
                 (unsigned long long)span.Attr("generation"));
  }

  // Convergence gate: full ingest, clean Finish, zero lost acked updates.
  const uint64_t lost = snap.Value("engine.failover.updates_lost_total");
  const wbs::Status finish_status = client->Finish();
  if (submit_failures > 0 || lost > 0 || !finish_status.ok()) {
    std::fprintf(stderr, "engine ingest failed (%llu submit failures, "
                 "%llu updates lost)\n",
                 (unsigned long long)submit_failures,
                 (unsigned long long)lost);
    PrintFailedStages({{"submits", submit_error}, {"Finish", finish_status}});
    return 1;
  }

  // ---- deterministic stdout: merged answers vs static ground truth ------
  // The linear families' merged state is partition-independent, so these
  // numbers are byte-identical no matter what topology the controller
  // chose or when its barriers landed.
  wbs::bench::Banner("engine_server",
                     workload == "step"
                         ? "step workload: paced Zipf traffic with a 4x "
                           "mid-stream rate spike"
                         : "diurnal workload: sinusoidal rate with a "
                           "rotating hot-key set");
  auto l0 = client->QueryScalar(l0_handle);
  auto f2 = client->QueryScalar(f2_handle);
  if (!l0.ok() || !f2.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }
  wbs::bench::Table table({"metric", "truth", "engine"});
  table.Row()
      .Cell(std::string("L0 (distinct)"))
      .Cell(double(truth.L0()))
      .Cell(l0.value().value);
  table.Row().Cell(std::string("F2 moment")).Cell(truth.Fp(2)).Cell(
      f2.value().value);
  std::printf("\nworkload=%s autoscale=%s: %llu updates ingested across 8 "
              "phases; zero acked updates lost; answers above are "
              "partition-independent (identical for ANY topology the "
              "controller picked)\n",
              workload.c_str(), autoscale ? "on" : "off",
              (unsigned long long)client->updates_submitted());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend_name = "inprocess";
  uint64_t stats_interval_ms = 0;  // 0 = stats monitor off
  std::string stats_jsonl_path;
  std::string workload;  // "" = the default 3-tenant demo
  bool autoscale = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      // Endpoint(s) of running engine_shardd daemons; implies --backend=tcp.
      // Two-terminal demo:
      //   terminal 1: ./examples/engine_shardd --port=7841
      //   terminal 2: ./examples/engine_server --connect=127.0.0.1:7841
      backend_name = std::string("tcp:") + (argv[i] + 10);
    } else if (std::strncmp(argv[i], "--stats-interval=", 17) == 0) {
      stats_interval_ms = std::strtoull(argv[i] + 17, nullptr, 10);
    } else if (std::strncmp(argv[i], "--stats-jsonl=", 14) == 0) {
      stats_jsonl_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      workload = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--autoscale") == 0) {
      autoscale = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--backend=inprocess|mixed|tcp]"
                   " [--connect=<host:port>[,<host:port>...]]"
                   " [--stats-interval=<ms>] [--stats-jsonl=<path>]"
                   " [--workload=step|diurnal] [--autoscale]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!workload.empty() && workload != "step" && workload != "diurnal") {
    std::fprintf(stderr, "unknown --workload=%s (step|diurnal)\n",
                 workload.c_str());
    return 2;
  }
  auto backend = wbs::engine::BackendFactoryByName(backend_name);
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
    return 2;
  }
  if (!workload.empty()) {
    return RunShapedWorkload(workload, autoscale, std::move(backend).value(),
                             stats_interval_ms, stats_jsonl_path);
  }

  const uint64_t universe = uint64_t{1} << 14;
  wbs::RandomTape tape(2026);
  tape.set_logging(false);

  // ---- client workloads -------------------------------------------------
  // Clients A and B live in the bottom half of the universe; client C
  // attacks the chunks of the top half so the damage is attributable.
  const uint64_t half = universe / 2;
  const auto params = wbs::distinct::SisL0Params::Derive(universe, 0.5, 0.25,
                                                         uint64_t{1} << 20);

  auto zipf_items = wbs::stream::ZipfStream(half, 60'000, 1.2, &tape);
  wbs::stream::TurnstileStream zipf;
  zipf.reserve(zipf_items.size());
  for (const auto& u : zipf_items) zipf.push_back({u.item, 1});

  // live + churn must fit in the half-universe (the generator's
  // precondition: churned items are distinct from live ones).
  auto churn =
      wbs::stream::InsertDeleteChurnStream(half, /*live=*/400,
                                           /*churn=*/7'000, &tape);

  // Client C: for every top-half chunk, stream +1/-1 across PAIRS of
  // coordinates. Each pair leaves two live keys whose chunk-sum is zero —
  // the one-shot kill for any per-chunk sum counter, and exactly the
  // update pattern a white-box adversary would use against a non-crypto
  // linear sketch.
  wbs::stream::TurnstileStream adversarial;
  for (uint64_t base = half; base + params.chunk_width <= universe;
       base += params.chunk_width) {
    for (uint64_t pair = 0; pair + 1 < params.chunk_width && pair < 20;
         pair += 2) {
      adversarial.push_back({base + pair, +1});
      adversarial.push_back({base + pair + 1, -1});
    }
  }

  // ---- the engine -------------------------------------------------------
  wbs::engine::ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2", "sis_l0"};  // turnstile-capable group
  opts.ingest.config =
      wbs::engine::SketchConfig{}.WithUniverse(universe).WithSeed(7);
  opts.ingest.backend = std::move(backend).value();
  auto client_or = wbs::engine::Client::Create(opts);
  if (!client_or.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(client_or).value();

  // Handles are resolved once; every query below is an index lookup.
  auto l0_handle = client->Handle("sis_l0").value();
  auto f2_handle = client->Handle("ams_f2").value();

  wbs::stream::FrequencyOracle truth(universe);
  for (const wbs::stream::TurnstileStream* s :
       {&zipf, &churn, &adversarial}) {
    for (const auto& u : *s) truth.Add(u.item, u.delta);
  }

  // ---- three producers + one monitor, all concurrent --------------------
  // Each tenant drains its own buffer into the engine: Submit returns a
  // ticket immediately, so a slow worker never stalls a client thread. The
  // last ticket per tenant is Wait()ed at the end — by the monotone
  // completion watermark that covers everything the tenant submitted.
  const size_t slice = 2048;
  std::mutex submit_mu;
  wbs::Status submit_error;  // first failed Submit or Wait, under submit_mu
  auto note_submit_error = [&](const wbs::Status& s) {
    std::lock_guard<std::mutex> lock(submit_mu);
    if (submit_error.ok()) submit_error = s;
  };
  auto producer = [&](const wbs::stream::TurnstileStream& s) {
    wbs::engine::IngestTicket last{};
    for (size_t off = 0; off < s.size(); off += slice) {
      auto t = client->Submit(s.data() + off,
                              std::min(slice, s.size() - off));
      if (!t.ok()) {
        note_submit_error(t.status());
        return;
      }
      last = t.value();
    }
    if (wbs::Status w = client->Wait(last); !w.ok()) note_submit_error(w);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> monitor_failures{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client->QueryScalar(l0_handle).ok() ||
          !client->QueryScalar(f2_handle).ok()) {
        ++monitor_failures;
      }
    }
  });

  // Live stats monitor: metric table to stderr each tick, samples to the
  // JSONL stream. Runs concurrently with the producers and the reshard —
  // Metrics() needs no quiescence.
  std::ofstream stats_jsonl;
  if (stats_interval_ms > 0 && !stats_jsonl_path.empty()) {
    stats_jsonl.open(stats_jsonl_path, std::ios::trunc);
    if (!stats_jsonl.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", stats_jsonl_path.c_str());
      return 2;
    }
  }
  const auto run_start = std::chrono::steady_clock::now();
  std::thread stats_thread;
  if (stats_interval_ms > 0) {
    stats_thread = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stats_interval_ms));
        const uint64_t t_us =
            uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - run_start)
                         .count());
        EmitStats(*client, t_us, &stats_jsonl);
      }
    });
  }

  std::thread ta(producer, std::cref(zipf));
  std::thread tb(producer, std::cref(churn));
  std::thread tc(producer, std::cref(adversarial));

  // ---- live reshard while the tenants hammer the engine ------------------
  // Scale out by two shards, then hand shard 0 off to the other kind of
  // placement: tcp engines (self-hosted or daemon) move it in-process,
  // every other engine moves it to tcp. Both ops linearize at a batch
  // barrier through the router; the racing producers and the monitor never
  // see an error, and the linear sketches make the final answers
  // independent of where in the interleaving the barrier lands.
  wbs::Status reshard_error = client->AddShards(2);
  const bool tcp_engine = backend_name.rfind("tcp", 0) == 0;
  auto handoff_target = tcp_engine ? wbs::engine::InProcessBackendFactory()
                                   : wbs::engine::TcpBackendFactory();
  if (wbs::Status m = client->MoveShard(0, handoff_target);
      !m.ok() && reshard_error.ok()) {
    reshard_error = m;
  }
  // Handoff phase timings come from the recorded trace spans (the single
  // source of truth for control-op phase timings).
  // Timing is scheduling-dependent, so it goes to stderr, not the
  // determinism-probed stdout.
  for (const auto& span : client->TraceSpans()) {
    if (span.name != "move_shard") continue;
    std::fprintf(stderr,
                 "move_shard: %llu us total, %llu bytes handed off\n",
                 (unsigned long long)span.duration_us,
                 (unsigned long long)span.Attr("state_bytes"));
  }

  ta.join();
  tb.join();
  tc.join();
  stop.store(true, std::memory_order_relaxed);
  monitor.join();
  if (stats_thread.joinable()) {
    stats_thread.join();
    // One final tick so short runs still produce a stream and the table
    // reflects the complete ingest.
    const uint64_t t_us =
        uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - run_start)
                     .count());
    EmitStats(*client, t_us, &stats_jsonl);
  }
  const wbs::Status finish_status = client->Finish();
  if (!submit_error.ok() || !reshard_error.ok() || !finish_status.ok()) {
    std::fprintf(stderr, "engine ingest failed\n");
    PrintFailedStages({{"submits", submit_error},
                       {"reshards", reshard_error},
                       {"Finish", finish_status}});
    return 1;
  }

  // ---- merged answers vs ground truth -----------------------------------
  wbs::bench::Banner("engine_server",
                     "typed engine API serving Zipf + churn + adversarial "
                     "tenants as 3 concurrent producers (4 shards, 2 "
                     "workers, quiescence-free monitor thread)");

  auto l0 = client->QueryScalar(l0_handle);
  auto f2 = client->QueryScalar(f2_handle);
  if (!l0.ok() || !f2.ok()) {
    std::fprintf(stderr, "query failed\n");
    return 1;
  }

  // The broken baseline: per-chunk sum counters with the same chunking as
  // SIS-L0. Every attacked chunk sums to zero, so the naive counter misses
  // all of client C's live keys; the SIS sketch keeps them visible.
  wbs::distinct::NaiveSumL0 naive(universe, params.chunk_width);
  for (const wbs::stream::TurnstileStream* s :
       {&zipf, &churn, &adversarial}) {
    for (const auto& u : *s) naive.Update(u);
  }

  wbs::bench::Table table({"metric", "truth", "engine", "naive_sum"});
  table.Row()
      .Cell(std::string("L0 (distinct)"))
      .Cell(double(truth.L0()))
      .Cell(l0.value().value)
      .Cell(naive.Query());
  table.Row()
      .Cell(std::string("F2 moment"))
      .Cell(truth.Fp(2))
      .Cell(f2.value().value)
      .Cell(std::string("-"));

  std::printf(
      "\nupdates ingested: %llu across %zu shards (%zu worker threads, "
      "3 producer threads, %s backend)\n",
      (unsigned long long)client->updates_submitted(),
      client->num_shards(), client->num_threads(),
      backend_name.c_str());
  auto topo = client->Topology();
  std::printf(
      "live reshard: AddShards(2) + MoveShard(0 -> %s cell) mid-traffic; "
      "topology generation %llu, %zu shards over %zu slots\n",
      tcp_engine ? "inprocess" : "tcp",
      (unsigned long long)topo.generation, topo.num_shards, topo.num_slots);
  // A raw query COUNT would be scheduling-dependent and the examples
  // double as determinism probes (byte-identical output across runs), so
  // report only the failure count — deterministically 0 when healthy.
  std::printf("quiescence-free monitor thread: %llu query failures "
              "(no Flush anywhere)\n",
              (unsigned long long)monitor_failures.load());
  // Space depends on where the live-reshard barrier landed in the racing
  // producers' interleavings (AMS counter magnitudes are per-shard), so
  // report it coarsely to keep the rest of the output a determinism probe.
  std::printf("engine state: ~%llu KiB across all shard sketches\n",
              (unsigned long long)(client->SpaceBits() / 8192));
  std::printf(
      "client C streamed %zu cancellation updates: the naive sum counter\n"
      "reports its chunks empty, the SIS-backed engine answer does not.\n",
      adversarial.size());
  return 0;
}
