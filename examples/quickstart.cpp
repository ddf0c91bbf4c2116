// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Quickstart: the white-box robust heavy hitter algorithm served through
// the typed engine API in ~50 lines.
//
//   $ ./examples/quickstart
//
// Streams a skewed workload into the engine's robust_hh sketch (Algorithm 2
// of the paper, Theorem 1.1) via an async submit ticket, then reads the
// heavy hitter list back through a typed TopK query and spot-checks one
// item with a PointEstimate. Everything that makes this library different
// from an ordinary sketch library survives the serving surface: all
// randomness flows through seeded tapes the adversary can read (white-box
// model), every run is replayable from the config seed, and space is
// measured in bits.

#include <cstdio>

#include "engine/client.h"
#include "stream/workload.h"

int main() {
  // Per-family option blocks compose into one config expression; the seed
  // drives every tape in the engine, so this run is bit-reproducible.
  wbs::engine::ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"robust_hh"};
  opts.ingest.config =
      wbs::engine::SketchConfig{}
          .WithUniverse(uint64_t{1} << 30)
          .WithSeed(2022)
          .With(wbs::engine::HeavyHitterOptions{}.WithEps(0.05).WithDelta(
              0.25));
  auto client_or = wbs::engine::Client::Create(opts);
  if (!client_or.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(client_or).value();

  // Resolve the handle once; queries below never look the name up again.
  wbs::engine::SketchHandle hh = client->Handle("robust_hh").value();

  // A Zipf-distributed stream of one million updates, submitted in one
  // asynchronous batch: Submit returns a sequence-numbered ticket
  // immediately and the workers ingest behind it.
  wbs::RandomTape tape(2022);
  auto workload =
      wbs::stream::ZipfStream(uint64_t{1} << 30, 1'000'000, 1.2, &tape);
  auto ticket = client->SubmitItems(workload.data(), workload.size());
  if (!ticket.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 ticket.status().ToString().c_str());
    return 1;
  }
  // Wait(ticket) = "everything up to this ticket is ingested"; Flush also
  // publishes the final shard snapshots so the query below is exact.
  if (!client->Wait(ticket.value()).ok() || !client->Flush().ok()) {
    std::fprintf(stderr, "ingest failed\n");
    return 1;
  }

  auto top = client->QueryTopK(hh, 10);
  if (!top.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 top.status().ToString().c_str());
    return 1;
  }
  std::printf("top heavy hitters (eps = 0.05, %llu updates ingested):\n",
              (unsigned long long)top.value().updates);
  for (const auto& wi : top.value().items) {
    std::printf("  item %12llu  ~%.0f occurrences\n",
                static_cast<unsigned long long>(wi.item), wi.estimate);
  }

  if (!top.value().items.empty()) {
    // Typed point lookup: binary search over the summary's by-item index.
    auto point = client->QueryPoint(hh, top.value().items.front().item);
    if (point.ok()) {
      std::printf("\npoint estimate for item %llu: ~%.0f (tracked: %s)\n",
                  static_cast<unsigned long long>(point.value().item),
                  point.value().estimate,
                  point.value().tracked ? "yes" : "no");
    }
  }

  std::printf("engine state: %llu bits across %zu shards\n",
              (unsigned long long)client->SpaceBits(),
              client->num_shards());
  (void)client->Finish();
  return 0;
}
