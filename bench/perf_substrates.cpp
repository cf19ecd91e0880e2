// P1: substrate micro-benchmarks (google-benchmark). Not a paper figure —
// this measures the cost of the machinery that regenerates the figures:
// bit-parallel simulation, fault injection, activity estimation, BDD
// construction, sensitivity, mapping, and bound evaluation.
#include <benchmark/benchmark.h>

#include "bdd/circuit_to_bdd.hpp"
#include "core/analyzer.hpp"
#include "exec/thread_pool.hpp"
#include "core/size_bound.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/multipliers.hpp"
#include "sim/activity.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"
#include "sim/reliability.hpp"
#include "sim/sensitivity.hpp"
#include "synth/mapper.hpp"

namespace {

using namespace enb;

void BM_LogicSimRca32(benchmark::State& state) {
  const auto c = gen::ripple_carry_adder(32);
  sim::LogicSim simulator(c);
  sim::Xoshiro256 rng(1);
  std::vector<sim::Word> inputs(c.num_inputs());
  for (auto& w : inputs) w = rng.next();
  for (auto _ : state) {
    simulator.eval(inputs);
    benchmark::DoNotOptimize(simulator.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.gate_count()) * 64);
}
BENCHMARK(BM_LogicSimRca32);

void BM_NoisySimRca32(benchmark::State& state) {
  const auto c = gen::ripple_carry_adder(32);
  sim::NoisySim simulator(c, 0.01, 7);
  sim::Xoshiro256 rng(1);
  std::vector<sim::Word> inputs(c.num_inputs());
  for (auto& w : inputs) w = rng.next();
  for (auto _ : state) {
    simulator.eval(inputs);
    benchmark::DoNotOptimize(simulator.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.gate_count()) * 64);
}
BENCHMARK(BM_NoisySimRca32);

void BM_ActivityEstimateMult8(benchmark::State& state) {
  const auto c = gen::array_multiplier(8);
  sim::ActivityOptions options;
  options.sample_pairs = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::estimate_activity(c, options, exec::Parallelism::serial()));
  }
}
BENCHMARK(BM_ActivityEstimateMult8);

// Same estimate on the global pool; bit-identical result, wall-clock should
// scale with cores (shards of 64 pairs; 4096 pairs => 64 shards).
void BM_ActivityEstimateMult8Parallel(benchmark::State& state) {
  const auto c = gen::array_multiplier(8);
  sim::ActivityOptions options;
  options.sample_pairs = 4096;
  options.shard_pairs = 64;
  const exec::Parallelism how{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::estimate_activity(c, options, how));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.sample_pairs));
}
BENCHMARK(BM_ActivityEstimateMult8Parallel)->Arg(1)->Arg(0);

void BM_BddBuildMult4(benchmark::State& state) {
  const auto c = gen::array_multiplier(4);
  for (auto _ : state) {
    bdd::Bdd manager(static_cast<unsigned>(c.num_inputs()));
    benchmark::DoNotOptimize(bdd::build_output_bdds(manager, c));
  }
}
BENCHMARK(BM_BddBuildMult4);

void BM_SensitivityRca8(benchmark::State& state) {
  const auto c = gen::ripple_carry_adder(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compute_sensitivity(c));
  }
}
BENCHMARK(BM_SensitivityRca8);

void BM_MapCla16(benchmark::State& state) {
  const auto c = gen::carry_lookahead_adder(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::map_to_library(c, 3));
  }
}
BENCHMARK(BM_MapCla16);

void BM_ReliabilityTmrC17(benchmark::State& state) {
  const auto base = gen::ripple_carry_adder(4);
  const auto tmr = ft::nmr_transform(base).circuit;
  sim::ReliabilityOptions options;
  options.trials = 1 << 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::estimate_reliability_vs(
        tmr, base, 0.01, options, exec::Parallelism::serial()));
  }
}
BENCHMARK(BM_ReliabilityTmrC17);

// Pool-parallel fault injection: arg 1 = serial, arg 0 = global pool.
void BM_ReliabilityTmrParallel(benchmark::State& state) {
  const auto base = gen::ripple_carry_adder(4);
  const auto tmr = ft::nmr_transform(base).circuit;
  sim::ReliabilityOptions options;
  options.trials = 1 << 16;
  options.shard_passes = 16;
  const exec::Parallelism how{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::estimate_reliability_vs(tmr, base, 0.01, options, how));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_ReliabilityTmrParallel)->Arg(1)->Arg(0);

// Exact sensitivity sweep (2^17-assignment truth table), sharded over
// exhaustive blocks: arg 1 = serial, arg 0 = global pool.
void BM_SensitivityParallel(benchmark::State& state) {
  const auto c = gen::ripple_carry_adder(8);
  sim::SensitivityOptions options;
  const exec::Parallelism how{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compute_sensitivity(c, options, how));
  }
}
BENCHMARK(BM_SensitivityParallel)->Arg(1)->Arg(0);

void BM_BoundEvaluation(benchmark::State& state) {
  const auto profile = core::make_profile("p", 10, 21, 0.5, 2, 10);
  double eps = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(profile, eps, 0.01));
    eps = eps < 0.4 ? eps * 1.01 : 0.001;
  }
}
BENCHMARK(BM_BoundEvaluation);

void BM_RedundancyBoundOnly(benchmark::State& state) {
  double eps = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::redundancy_lower_bound(10, 2, eps, 0.01));
    eps = eps < 0.4 ? eps * 1.01 : 0.001;
  }
}
BENCHMARK(BM_RedundancyBoundOnly);

}  // namespace

BENCHMARK_MAIN();
