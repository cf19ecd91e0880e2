// Automatic redundancy insertion: the transformation half of src/harden/.
//
// harden_transform takes any combinational netlist::Circuit and inserts
// protection at a configurable granularity in three styles:
//
//   TMR        — triplicated logic with explicit MAJ voter placement; a
//                single fault inside any replica is masked at the voted
//                boundary.
//   DWC        — duplication with comparison; primary outputs keep the base
//                behaviour (copy A drives them) and every comparator is
//                exposed as a check primary output appended *after* the base
//                outputs, so a variant restricted to its first
//                `base_outputs` ports is output-equivalent to the base.
//   selective  — TMR applied only to the top-K output cones, ranked by the
//                fault engine's per-class first-detect evidence
//                (rank_output_cones); unprotected cones keep base logic.
//
// Every transform is a pure append-only rebuild (ids stay topological) and
// deterministic: the same (base, options, ranking) always produces the same
// circuit, which is what lets the optimizer's results ride the serve result
// cache keyed on canonical specs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/static_reason.hpp"
#include "harden/types.hpp"
#include "netlist/circuit.hpp"

namespace enb::harden {

// A hardened variant plus the bookkeeping the optimizer and the property
// tests need to address the inserted redundancy.
struct HardenedCircuit {
  netlist::Circuit circuit;
  // The first `base_outputs` output ports carry the base functions in base
  // order; `check_outputs` DWC comparator ports follow.
  std::size_t base_outputs = 0;
  std::size_t check_outputs = 0;
  // Gates added beyond one copy of the base logic, split into redundant
  // copies and voter/comparator logic.
  std::size_t replica_gates = 0;
  std::size_t voter_gates = 0;
  // Base output positions whose cones are under protection (all positions
  // for uniform styles, the selected top-K for selective).
  std::vector<std::size_t> protected_outputs;
};

// Ranks base output positions by campaign evidence: an output's score is the
// number of detected fault classes first detected at it, so the cones that
// expose the most fault traffic sort first. Ties break toward the
// lower output position; outputs with no first detections rank last. The
// campaign must come from a run over `base` (vs itself).
[[nodiscard]] std::vector<std::size_t> rank_output_cones(
    const netlist::Circuit& base, const fault::FaultCampaignResult& campaign);

// Inserts protection per `options`. For Style::kSelective, `ranked` gives
// the output-cone priority order (see rank_output_cones); when empty, output
// positions are taken in ascending order. Uniform styles ignore `ranked`.
// Throws std::invalid_argument when the base has no outputs.
[[nodiscard]] HardenedCircuit harden_transform(
    const netlist::Circuit& base, const TransformOptions& options,
    std::span<const std::size_t> ranked = {});

// Proves the variant output-equivalent to its base with the static-reasoning
// oracle. DWC check outputs are excluded by restricting the variant to its
// first `base_outputs` ports (extract_cone keeps the input interface), so
// every style verifies through the same call.
[[nodiscard]] analysis::CecResult verify_hardened(
    const netlist::Circuit& base, const HardenedCircuit& variant,
    const analysis::CecOptions& options = {});

// The variant's lint errors (analysis::lint_errors). Hardened variants must
// come back clean() — zero errors. Warnings are not computed: the sweep
// reads only clean() and errors(), and a TMR variant would only warn about
// its deliberate replicas anyway; `enbound_cli lint` gives the full report.
[[nodiscard]] analysis::LintReport lint_hardened(
    const HardenedCircuit& variant);

}  // namespace enb::harden
