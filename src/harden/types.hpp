// Vocabulary of the hardening subsystem: protection styles, granularities,
// sweep options, and the Pareto-frontier result payload.
//
// This header is deliberately light — analysis/request.hpp includes it to
// ride kind=harden through batch/manifest/serve, so it may only
// depend on option/result types that the request vocabulary already pulls
// in (fault campaign options, CEC options, voter styles). The transform and
// optimizer logic live in harden/transform.hpp and harden/pareto.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/static_reason.hpp"
#include "fault/campaign.hpp"
#include "ft/voter.hpp"

namespace enb::harden {

// How redundancy is inserted.
enum class Style : std::uint8_t {
  kTmr,        // triplicate + MAJ vote: single faults masked
  kDwc,        // duplicate + compare: faults flagged on check outputs
  kSelective,  // TMR on only the top-K output cones ranked by the fault
               // engine's first-detect evidence (campaign-driven)
};

// At which structural boundary protection is applied.
enum class Granularity : std::uint8_t {
  kGate,    // every protected gate gets its own replicas + voter/comparator
  kCone,    // each protected output cone is replicated independently
  kOutput,  // one shared replica of the whole protected region, voted or
            // compared at the primary outputs
};

[[nodiscard]] const char* to_string(Style style) noexcept;
[[nodiscard]] const char* to_string(Granularity granularity) noexcept;
[[nodiscard]] std::optional<Style> parse_style(std::string_view name);
[[nodiscard]] std::optional<Granularity> parse_granularity(
    std::string_view name);

// One concrete insertion: the (style, granularity, K, voter) tuple
// harden_transform realizes.
struct TransformOptions {
  Style style = Style::kTmr;
  Granularity granularity = Granularity::kOutput;
  // kSelective only: number of output cones protected (clamped to the
  // output count; 0 protects nothing).
  std::uint32_t top_k = 0;
  ft::VoterStyle voter = ft::VoterStyle::kMajGate;
};

// Campaign defaults for hardening sweeps: untestable classes are pruned so
// statically undetectable faults never skew cone ranking or the protection
// axis (the PR 8 prover guarantees pruning never changes a detectable row).
[[nodiscard]] inline fault::CampaignOptions default_sweep_campaign() {
  fault::CampaignOptions options;
  options.prune_untestable = true;
  return options;
}

// Options of one kind=harden request: which slice of the style x
// granularity x K space to sweep and the evaluation knobs. Everything here
// is value-relevant and appears in the canonical spec.
struct SweepOptions {
  // Restrict the sweep to one style / granularity; nullopt sweeps all.
  std::optional<Style> style;
  std::optional<Granularity> granularity;
  // Selective cone count: 0 sweeps a K ladder (1, 2, 4, ... below the
  // output count), a positive value pins that single K.
  std::uint32_t top_k = 0;
  ft::VoterStyle voter = ft::VoterStyle::kMajGate;
  // Fault campaign shape used both for cone ranking on the base circuit and
  // for grading every candidate.
  fault::CampaignOptions campaign = default_sweep_campaign();
  // Equivalence-oracle knobs for the per-candidate proof.
  analysis::CecOptions cec;
  // Energy-bound operating point.
  double epsilon = 0.01;
  double delta = 0.01;
  double leakage_fraction = 0.5;
};

// One evaluated point of the sweep. `label` is the stable human-readable
// identity ("base", "tmr/gate", "selective/cone/k2") the CLI table, emitted
// .bench filenames, and tests key on.
struct Candidate {
  std::string label;
  bool hardened = false;  // false only for the unprotected baseline
  Style style = Style::kTmr;
  Granularity granularity = Granularity::kOutput;
  std::uint32_t top_k = 0;
  // Equivalence verdict vs the base (the baseline is trivially equivalent);
  // a refuted or inconclusive candidate never reaches the frontier.
  bool equivalent = false;
  bool lint_clean = false;
  // Axes: gate-count area, energy-bound total factor (lower is better), and
  // the protection fraction — classes that never silently corrupt a primary
  // output (masked, or first detected at a DWC check output).
  std::uint64_t gates = 0;
  double energy_factor = 0.0;
  double protection = 0.0;
  // Raw campaign detection coverage (observability — TMR masks detections
  // away, selective keeps them; reported alongside the frontier axes).
  double coverage = 0.0;
  std::uint64_t voter_gates = 0;
  std::uint64_t check_outputs = 0;
  bool on_frontier = false;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

// The kind=harden result payload: every candidate in deterministic
// enumeration order plus the non-dominated subset over
// (energy_factor down, protection up, gates down).
struct ParetoResult {
  std::vector<Candidate> candidates;
  std::vector<std::uint32_t> frontier;  // candidate indices, ascending
  std::uint64_t refuted = 0;            // candidates with a CEC refutation
  std::uint64_t lint_errors = 0;        // candidates with lint errors

  friend bool operator==(const ParetoResult&, const ParetoResult&) = default;
};

}  // namespace enb::harden
