// CircuitProfile: the (s, S0, sw0, k, n, d0) tuple the bounds consume,
// extracted from a gate-level netlist with the simulation substrates.
// This mirrors the paper's Section 6 flow: map the benchmark, measure average
// switching activity under random inputs, take sensitivity and size from the
// function/netlist, then plug into Theorems 1–4.
#pragma once

#include <cstdint>
#include <string>

#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/activity.hpp"

namespace enb::core {

struct CircuitProfile {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  double size_s0 = 0.0;        // gate count S0
  int depth_d0 = 0;            // logic depth
  double avg_fanin_k = 0.0;    // average gate fanin (the bound's k)
  int max_fanin = 0;
  double avg_activity_sw0 = 0.0;  // mean per-gate toggle rate
  double sensitivity_s = 0.0;     // Boolean sensitivity (>= 1 for nontrivial f)
  bool sensitivity_exact = false; // false => sampled lower bound
};

struct ProfileOptions {
  // Monte-Carlo activity estimation (pairs of 64-lane vectors).
  std::size_t activity_pairs = 1 << 12;
  // Exact activity by exhaustive simulation when the input count is at
  // most exact_activity_max_inputs (which may not exceed
  // sim::kMaxExhaustiveInputs while this is set).
  bool prefer_exact_activity = true;
  int exact_activity_max_inputs = 16;
  // Sensitivity: exhaustive up to this many inputs, sampled beyond.
  int sensitivity_exact_max_inputs = 20;
  std::uint64_t sensitivity_sample_words = 256;
  std::uint64_t seed = 17;

  // Every field determines the extracted value, so equal options share one
  // cached extraction per analysis::CompiledCircuit.
  friend bool operator==(const ProfileOptions&,
                         const ProfileOptions&) = default;
};

// One extraction: the profile plus the per-node activity its sw0 averages.
// Keeping the per-node rates lets a circuit whose every node provably
// computes a base node's function (or constant 0) take its activity from
// the base's extraction instead of re-simulating (see harden/derive.hpp).
struct ProfileExtraction {
  CircuitProfile profile;
  sim::ActivityResult activity;
};

// Profile extraction as one sharded job (see exec::ShardedJob): activity
// shards, then the sensitivity sweep's shards. Activity is exact
// (sim::exact_activity_job) when prefer_exact_activity and the input count
// allow it, Monte-Carlo (sim::activity_job) otherwise. Throws
// std::invalid_argument on a circuit without gates, an invalid budget, or
// an exact-activity cap above sim::kMaxExhaustiveInputs.
[[nodiscard]] exec::ShardedJob<ProfileExtraction> profile_job(
    const netlist::Circuit& circuit, const ProfileOptions& options);

// The extraction of `circuit` given its per-node activity and sensitivity:
// size, depth and fanin come from netlist::compute_stats, sw0 is the
// activity's gate average. profile_job's finish() and derived profiles
// (harden/derive.hpp) both assemble through here.
[[nodiscard]] ProfileExtraction assemble_profile(
    const netlist::Circuit& circuit, sim::ActivityResult activity,
    double sensitivity_s, bool sensitivity_exact);

// Measures a profile from a (typically mapped) netlist: profile_job run per
// `how`. Results are bit-identical for any thread count.
[[nodiscard]] CircuitProfile extract_profile(const netlist::Circuit& circuit,
                                             const ProfileOptions& options = {},
                                             exec::Parallelism how = {});

// A profile from explicit numbers (e.g. the paper's s=10, S0=21 parity).
[[nodiscard]] CircuitProfile make_profile(std::string name, double sensitivity,
                                          double size_s0, double sw0,
                                          double fanin_k, int num_inputs);

}  // namespace enb::core
