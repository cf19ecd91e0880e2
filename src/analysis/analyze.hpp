// The analysis layer's front door: the handle-cached profile and bounds,
// plus a generic evaluate() over typed requests.
//
// evaluate() is the single-request counterpart of exec::BatchEvaluator —
// same request vocabulary, same results (bit-identical: both drive the
// estimators' sharded jobs over the same counter-based streams). Prefer it
// for one-off analyses and the batch evaluator when fanning out many
// requests; the estimators themselves (sim::, fault::) take plain circuits.
#pragma once

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"

namespace enb::analysis {

// Cached on the handle: repeated calls (and batch jobs sharing the handle)
// extract at most once per profile key.
[[nodiscard]] const core::CircuitProfile& extract_profile(
    const CompiledCircuit& circuit, const core::ProfileOptions& options = {},
    exec::Parallelism how = {});

// Theorem 1-4 bounds at (epsilon, delta) for the handle's cached profile
// (extracting it on first use).
[[nodiscard]] core::BoundReport analyze(
    const CompiledCircuit& circuit, double epsilon, double delta,
    const core::EnergyModelOptions& energy = {},
    const core::ProfileOptions& profile_options = {},
    exec::Parallelism how = {});

// ---- generic typed front door --------------------------------------------

// Evaluates one request. Never throws for per-request problems: invalid
// options or a throwing evaluation produce ok = false with the error text,
// exactly like a batch job. result.index is 0.
[[nodiscard]] AnalysisResult evaluate(const AnalysisRequest& request,
                                      exec::Parallelism how = {});

}  // namespace enb::analysis
