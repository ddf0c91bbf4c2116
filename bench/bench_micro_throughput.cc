// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Google-benchmark microbenchmarks: per-update cost of every streaming
// structure in the library. Not a paper experiment — an engineering
// companion that quantifies the price of white-box robustness in
// nanoseconds rather than bits. The engine's own benchmark is perfbench/
// (BENCHMARK.json); the SIMD kernels' bit identity is tested by
// tests/kernel_simd_test.cc.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/random.h"
#include "counter/morris.h"
#include "crypto/crhf.h"
#include "crypto/sha256.h"
#include "distinct/l0_estimator.h"
#include "heavyhitters/misra_gries.h"
#include "heavyhitters/robust_hh.h"
#include "hhh/hhh.h"
#include "linalg/rank_sketch.h"
#include "moments/ams.h"
#include "strings/fingerprint.h"

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

}  // namespace

BENCHMARK_MAIN();
