// Boolean sensitivity: the `s` parameter of Theorem 2.
//
// The sensitivity of f at assignment x is the number of inputs whose
// individual flip changes the output (for multi-output functions: changes
// any output — equivalently, the sensitivity of the characteristic function,
// which Corollary 1 uses). s(f) = max over x.
//
// Exact computation enumerates all assignments (bit-parallel, n <= 22 by
// default); beyond that, random sampling yields a lower bound — conservative
// in the right direction for a lower-bound theorem. Per-input influences
// P_x[f(x) != f(x ^ e_i)] come out of the same sweep for free.
// The sweep is event-driven input flips (sim::BlockSim) on blocks of up to
// 512 patterns: 8 consecutive 64-assignment words of a shard.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"

namespace enb::sim {

struct SensitivityResult {
  int sensitivity = 0;              // max over evaluated assignments
  bool exact = false;               // true if all 2^n assignments were seen
  std::vector<double> influence;    // per input: P[flip i changes any output]
  double total_influence = 0.0;     // sum of influences (avg sensitivity)
  std::uint64_t assignments = 0;    // number of base assignments evaluated
};

struct SensitivityOptions {
  int max_exact_inputs = 22;        // exhaustive up to this many inputs
  std::uint64_t sample_words = 256; // 64 base assignments per word when sampling
  std::uint64_t seed = 3;
  // Parallel execution. Sampled sweeps shard `sample_words` into groups of
  // `shard_words` with per-shard counter-based streams; exact sweeps shard
  // the truth-table blocks. Influence counts merge by sum and sensitivity by
  // max, so results are thread-count independent.
  std::uint64_t shard_words = 32;
};

// The sweep as a sharded job (see exec::ShardedJob): exhaustive block
// ranges when exact, sampled word ranges otherwise; degenerate circuits (no
// inputs or no outputs) get no shards. Throws std::invalid_argument when the
// sampled sweep is selected with a zero sample budget.
[[nodiscard]] exec::ShardedJob<SensitivityResult> sensitivity_job(
    const netlist::Circuit& circuit, const SensitivityOptions& options);

[[nodiscard]] SensitivityResult compute_sensitivity(
    const netlist::Circuit& circuit, const SensitivityOptions& options = {},
    exec::Parallelism how = {});

}  // namespace enb::sim
