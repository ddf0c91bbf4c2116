// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Experiment E8 (Theorem 1.9 / Section 3.1): constant-factor Fp estimation
// against white-box adversaries needs Omega(n) space. Demonstrated two ways:
// (a) the kernel attack kills EVERY o(n)-row linear sketch (AMS) regardless
// of width, while the Omega(n)-space exact algorithm survives; (b) the
// Theorem 1.8 derandomization turns the robust algorithm into a
// deterministic GapEquality protocol whose communication is the state size.
//
// A checked paper test (ctest label `paper`): exits nonzero when a checked
// claim fails. E8a checks that at every width the sketch does not survive
// and ends at estimate 0 while F2 > 0, and that the exact algorithm
// survives; E8c that the sketch's states collide (fewer than the inputs)
// while the exact algorithm's do not. E8b's table is printed, not checked.

#include "bench/bench_util.h"
#include "commlb/problems.h"
#include "commlb/reduction.h"
#include "commlb/toy_sketch.h"
#include "common/random.h"
#include "core/game.h"
#include "moments/ams.h"
#include "stream/frequency_oracle.h"

namespace wbs {
namespace {

bool KernelAttack() {
  bench::Banner(
      "E8a: the white-box kernel attack vs AMS (any approximation factor)",
      "Thm 1.9: every o(n)-space linear sketch is driven to estimate 0 "
      "while F2 > 0");
  bench::Table t({"sketch_rows", "sketch_bits", "survived", "final_est",
                  "true_F2"});
  bool sketches_broken = true;
  for (size_t rows : {6u, 12u, 18u, 24u, 30u}) {
    wbs::RandomTape tape(rows);
    moments::AmsF2Sketch alg(1 << 16, rows, &tape);
    tape.set_logging(false);
    moments::AmsKernelAdversary adv(&alg);
    if (!adv.armed()) {
      t.Row().Cell(uint64_t(rows)).Cell(alg.SpaceBits())
          .Cell(std::string("n/a")).Cell(std::string("overflow"))
          .Cell(std::string("-"));
      sketches_broken = false;
      continue;
    }
    stream::FrequencyOracle truth(1 << 16);
    auto result = core::RunGame<stream::TurnstileUpdate, double>(
        &alg, &adv, 100000,
        [&](const stream::TurnstileUpdate& u) { truth.Add(u.item, u.delta); },
        [&](uint64_t, const double& answer) {
          double f2 = truth.Fp(2);
          if (f2 == 0) return true;
          return answer >= f2 / 3 && answer <= 3 * f2;
        },
        /*stop_at_first_failure=*/false);
    if (result.algorithm_survived || alg.Query() != 0 || truth.Fp(2) <= 0) {
      sketches_broken = false;
    }
    t.Row()
        .Cell(uint64_t(rows))
        .Cell(alg.SpaceBits())
        .Cell(result.algorithm_survived)
        .Cell(alg.Query(), 1)
        .Cell(truth.Fp(2), 1);
  }
  std::printf("expected: survived = no at every width; final_est = 0.\n");

  bench::Table t2({"algorithm", "space_bits", "survived"});
  bool exact_survived = false;
  {
    wbs::RandomTape tape(99);
    moments::AmsF2Sketch victim(1 << 16, 12, &tape);
    moments::AmsKernelAdversary adv(&victim);
    moments::ExactF2Stream exact(1 << 16);
    stream::FrequencyOracle truth(1 << 16);
    auto result = core::RunGame<stream::TurnstileUpdate, double>(
        &exact, &adv, 100000,
        [&](const stream::TurnstileUpdate& u) { truth.Add(u.item, u.delta); },
        [&](uint64_t, const double& answer) { return answer == truth.Fp(2); });
    exact_survived = result.algorithm_survived;
    t2.Row()
        .Cell(std::string("exact (Omega(n))"))
        .Cell(exact.SpaceBits())
        .Cell(result.algorithm_survived);
  }
  return bench::Check("E8a", sketches_broken && exact_survived,
                      "at every width the sketch does not survive and ends "
                      "at final_est = 0 while true_F2 > 0; the exact "
                      "algorithm survives");
}

void Derandomization() {
  bench::Banner(
      "E8b: the Theorem 1.8 reduction, executed exactly",
      "robust streaming alg with S bits => deterministic one-way GapEq "
      "protocol with S bits; det. GapEq needs Omega(n) [Thm 3.2]");
  bench::Table t({"n", "bob_inputs", "found_seed", "seeds_tried",
                  "comm_bits", "n_bits(LB)"});
  for (size_t n : {6u, 8u, 10u, 12u}) {
    wbs::RandomTape tape(n);
    commlb::BitString x = commlb::RandomBalanced(n, &tape);
    std::vector<commlb::BitString> ys = {x};
    for (const auto& y : commlb::AllBalancedStrings(n)) {
      if (commlb::Ham(x, y) * 2 >= n && !(y == x)) ys.push_back(y);
    }
    auto outcome = commlb::DerandomizeOneWay<commlb::GapEqF2Sketch, bool>(
        x, ys,
        [&](uint64_t seed) {
          return commlb::GapEqF2Sketch::Make(seed, 24, n);
        },
        [](commlb::GapEqF2Sketch* a, const commlb::BitString& ax) {
          a->Feed(ax);
        },
        [](commlb::GapEqF2Sketch* a, const commlb::BitString& by) {
          a->Feed(by);
        },
        [](const commlb::GapEqF2Sketch& a) { return a.DecidesEqual(); },
        [](const bool& says_equal, const commlb::BitString& ax,
           const commlb::BitString& by) { return says_equal == (ax == by); },
        [](const commlb::GapEqF2Sketch& a) { return a.StateBits(); },
        /*max_seeds=*/128);
    t.Row()
        .Cell(uint64_t(n))
        .Cell(uint64_t(ys.size()))
        .Cell(outcome.found)
        .Cell(outcome.seeds_tried)
        .Cell(outcome.communication_bits)
        .Cell(uint64_t(n));
  }
  std::printf(
      "reading: a correct-for-all-y robust algorithm exists only with "
      "comm_bits = Omega(n); the sketch's state indeed grows with n.\n");
}

bool PigeonholeStates() {
  bench::Banner(
      "E8c: distinct Alice states vs number of inputs (pigeonhole)",
      "an o(n)-bit state cannot distinguish all C(n, n/2) inputs -> "
      "collisions -> some GapEq instance is answered wrongly");
  bench::Table t({"n", "inputs", "sketch_states", "exact_states"});
  bool held = true;
  for (size_t n : {8u, 10u, 12u}) {
    auto xs = commlb::AllBalancedStrings(n);
    uint64_t sketch_states =
        commlb::CountDistinctStates<commlb::GapEqF2Sketch>(
            xs, 7,
            [&](uint64_t seed) {
              return commlb::GapEqF2Sketch::Make(seed, 2, n);
            },
            [](commlb::GapEqF2Sketch* a, const commlb::BitString& ax) {
              a->Feed(ax);
            },
            [](const commlb::GapEqF2Sketch& a) {
              std::vector<uint64_t> w;
              for (int64_t c : a.counters) w.push_back(uint64_t(c));
              return w;
            });
    struct ExactAlg {
      commlb::BitString stored;
    };
    uint64_t exact_states = commlb::CountDistinctStates<ExactAlg>(
        xs, 0, [](uint64_t) { return ExactAlg{}; },
        [](ExactAlg* a, const commlb::BitString& ax) { a->stored = ax; },
        [](const ExactAlg& a) {
          std::vector<uint64_t> w;
          for (uint8_t b : a.stored) w.push_back(b);
          return w;
        });
    if (sketch_states >= xs.size() || exact_states != xs.size()) {
      held = false;
    }
    t.Row()
        .Cell(uint64_t(n))
        .Cell(uint64_t(xs.size()))
        .Cell(sketch_states)
        .Cell(exact_states);
  }
  std::printf(
      "expected: sketch_states < inputs (pigeonhole collisions), "
      "exact_states == inputs.\n");
  return bench::Check("E8c", held,
                      "sketch_states < inputs and exact_states == inputs "
                      "at every n");
}

}  // namespace
}  // namespace wbs

int main() {
  bool held = wbs::KernelAttack();
  wbs::Derandomization();
  held &= wbs::PigeonholeStates();
  return held ? 0 : 1;
}
