// The optimization half of src/harden/: sweep the style x granularity x K
// space, prove every variant equivalent to its base, grade each through the
// existing batch engine (energy bound + fault campaign), and emit the
// non-dominated frontier over (energy factor, protection, gate area).
//
// Everything is deterministic: candidate enumeration is a fixed order,
// transforms are pure functions of (base, config, ranking), campaigns and
// energy bounds follow the exec determinism contract, and the frontier
// breaks exact ties toward the earliest candidate — so a sweep's result is
// bit-identical for any thread count and safe to key on its canonical spec
// in the serve result cache.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "exec/thread_pool.hpp"
#include "harden/transform.hpp"
#include "harden/types.hpp"

namespace enb::harden {

// The transform configs a sweep evaluates, in deterministic order (styles
// tmr, dwc, selective; granularities gate, cone, output; selective expands
// over a K ladder of 1, 2, 4, ... strictly below the output count unless
// options.top_k pins one K). The unprotected baseline is implicit and always
// candidate 0 of the sweep result.
[[nodiscard]] std::vector<TransformOptions> enumerate_candidates(
    std::size_t num_outputs, const SweepOptions& options);

// Runs the full sweep over `base`:
//   1. evaluates the base (energy bound + campaign — also the selective
//      cone-ranking evidence),
//   2. builds every candidate, proves it output-equivalent with the
//      static-reasoning oracle, checks it for lint errors, and
//      grades it through one exec::BatchEvaluator batch,
//   3. computes the non-dominated frontier over (energy_factor down,
//      protection up, gates down) across the equivalent, lint-clean
//      candidates.
// Throws std::invalid_argument / std::runtime_error on unusable inputs or a
// failed candidate evaluation (batch error isolation surfaces it per job).
[[nodiscard]] ParetoResult pareto_sweep(const analysis::CompiledCircuit& base,
                                        const SweepOptions& options,
                                        exec::Parallelism how = {});

// Rebuilds the hardened netlist behind one sweep candidate — transforms are
// deterministic, so the CLI's --emit regenerates winners instead of the
// result payload carrying whole circuits through caches. Selective ranking
// is recomputed from the base campaign. Precondition: candidate.hardened.
[[nodiscard]] HardenedCircuit rebuild_candidate(const netlist::Circuit& base,
                                                const SweepOptions& options,
                                                const Candidate& candidate,
                                                exec::Parallelism how = {});

// The frontier axis derived from a candidate campaign: the fraction of
// graded fault classes that never *silently* corrupt a primary output —
// masked entirely, or first detected at a check output (DWC comparators
// fire at any pattern where a duplicated gate misbehaves, so a flagged
// corruption counts as protected).
[[nodiscard]] double protection_of(const fault::FaultCampaignResult& campaign,
                                   std::size_t primary_outputs);

}  // namespace enb::harden
