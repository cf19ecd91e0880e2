// Typed analysis requests and results: the job vocabulary of the analysis
// layer.
//
// An AnalysisRequest is one analysis over one CompiledCircuit handle: the
// kind and its options live together in a std::variant (no kind enum with
// six half-initialized option structs to keep in sync), and the circuit is a
// shared handle, so enqueueing a hundred requests over one design costs a
// hundred shared_ptr copies — never a netlist clone. The matching
// AnalysisResult carries the estimator's full typed payload plus the flat
// (metric, value) rows the CSV/JSON writers consume.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/lint.hpp"
#include "analysis/static_reason.hpp"
#include "core/analyzer.hpp"
#include "core/energy_bound.hpp"
#include "core/profile.hpp"
#include "fault/campaign.hpp"
#include "harden/types.hpp"
#include "sim/activity.hpp"
#include "sim/reliability.hpp"
#include "sim/sensitivity.hpp"

namespace enb::analysis {

enum class AnalysisKind {
  kReliability,   // Monte-Carlo delta estimate (vs golden when provided)
  kWorstCase,     // worst sampled-input delta (vs golden when provided)
  kActivity,      // Monte-Carlo switching activity
  kSensitivity,   // Boolean sensitivity (exact or sampled)
  kEnergyBound,   // Theorem 1-4 bound report at (eps, delta)
  kProfile,       // (s, S0, sw0, k, d0) profile extraction
  kFaultCampaign, // stuck-at fault campaign (coverage / masking vs golden)
  kLint,          // structural netlist lint (typed diagnostics)
  kCec,           // combinational equivalence check (circuit vs golden)
  kHarden,        // redundancy-insertion Pareto sweep (style x granularity x K)
};

[[nodiscard]] const char* to_string(AnalysisKind kind) noexcept;
[[nodiscard]] std::optional<AnalysisKind> parse_analysis_kind(
    std::string_view name);

// ---- per-kind request options --------------------------------------------

struct ReliabilityRequest {
  double epsilon = 0.01;
  sim::ReliabilityOptions options;
};

struct WorstCaseRequest {
  double epsilon = 0.01;
  sim::WorstCaseOptions options;
};

struct ActivityRequest {
  sim::ActivityOptions options;
};

struct SensitivityRequest {
  sim::SensitivityOptions options;
};

struct EnergyBoundRequest {
  double epsilon = 0.01;
  double delta = 0.01;
  core::EnergyModelOptions energy;
  // Extraction knobs; the extracted profile is cached on the handle, so
  // requests sharing a handle and a profile key share one extraction.
  core::ProfileOptions profile;
  // Analyze this profile directly instead of extracting from the circuit
  // (the request's circuit handle may then be empty).
  std::optional<core::CircuitProfile> profile_override;
};

struct ProfileRequest {
  core::ProfileOptions options;
};

struct FaultCampaignRequest {
  // The request's golden handle (when present) is the reference the faulty
  // circuit is graded against — the masking view; absent, the circuit is
  // graded against its own fault-free behaviour — the coverage view.
  fault::CampaignOptions options;
};

struct LintRequest {
  LintOptions options;
};

struct CecRequest {
  // The second circuit of the comparison rides the request's golden handle
  // — the same slot every vs-reference analysis uses — so the serve result
  // cache covers both fingerprints with zero new plumbing. A CecRequest
  // without a golden handle is an error.
  CecOptions options;
};

struct HardenRequest {
  // The request's circuit is the base design: every candidate variant is
  // derived from it, proved equivalent, and graded inside the evaluation,
  // so the base fingerprint plus this canonical spec fully keys the result
  // — no golden handle and zero new cache plumbing.
  harden::SweepOptions options;
};

// Alternative order mirrors AnalysisKind (kind() relies on it).
using RequestOptions =
    std::variant<ReliabilityRequest, WorstCaseRequest, ActivityRequest,
                 SensitivityRequest, EnergyBoundRequest, ProfileRequest,
                 FaultCampaignRequest, LintRequest, CecRequest, HardenRequest>;

struct AnalysisRequest {
  std::string name;
  // Shared handle — copying a request never copies a netlist. May be an
  // empty handle only for an EnergyBoundRequest with profile_override.
  CompiledCircuit circuit;
  // Reference implementation for kReliability / kWorstCase; when absent the
  // circuit is compared against its own noise-free evaluation.
  std::optional<CompiledCircuit> golden;
  RequestOptions options;

  [[nodiscard]] AnalysisKind kind() const noexcept {
    return static_cast<AnalysisKind>(options.index());
  }
};

// ---- results -------------------------------------------------------------

// Typed payload; monostate only for failed analyses.
using ResultPayload =
    std::variant<std::monostate, sim::ReliabilityResult, sim::WorstCaseResult,
                 sim::ActivityResult, sim::SensitivityResult, core::BoundReport,
                 core::CircuitProfile, fault::FaultCampaignResult, LintReport,
                 CecResult, harden::ParetoResult>;

// Per-request outcome. Failures are isolated: a request whose options are
// invalid (or whose evaluation throws) reports ok = false with the error
// text while the rest of its batch completes normally.
struct AnalysisResult {
  std::size_t index = 0;  // submission index within its batch (0 standalone)
  std::string name;
  AnalysisKind kind = AnalysisKind::kReliability;
  bool ok = false;
  std::string error;
  // Flat (metric, value) pairs in a fixed per-kind order — the CSV/JSON row.
  std::vector<std::pair<std::string, double>> metrics;
  // The profile behind a kProfile result or a kEnergyBound extraction.
  std::optional<core::CircuitProfile> profile;
  ResultPayload payload;
  // Wall-clock from batch prepare to emission, filled by the batch engine
  // (0 when the result was built another way). Observability only: never
  // serialized — write_result_json and the cache key ignore it, so timed
  // and untimed results stay byte-identical.
  double elapsed_seconds = 0.0;

  // The value of `metric`, if present.
  [[nodiscard]] std::optional<double> metric(std::string_view name) const;

  // The typed payload if it holds a T, else nullptr.
  template <typename T>
  [[nodiscard]] const T* get() const noexcept {
    return std::get_if<T>(&payload);
  }
};

// Canonical, value-complete serialization of a request's options: the kind
// name followed by every field that can reach the result (Monte-Carlo
// budgets, seeds, shard shapes — shard decomposition feeds the counter-based
// streams — and model knobs), with doubles rendered in hexfloat so equal
// values serialize identically and nothing is lost to rounding. Execution
// policy (the fault-campaign lane width) is excluded: it never changes a
// result. Two requests with equal canonical specs over the same circuit
// (and golden) produce bit-identical results by the determinism contract,
// which is what makes this string a safe cross-request cache-key component
// (see serve::result_cache_key).
[[nodiscard]] std::string canonical_spec(const RequestOptions& options);

// Flattens a payload into the writers' fixed (metric, value) rows.
[[nodiscard]] std::vector<std::pair<std::string, double>> flatten_metrics(
    const ResultPayload& payload);

// Installs `payload` into `result`: metrics flattened, profile payloads
// mirrored into result.profile, payload moved in. The one place the
// payload-to-result mapping lives (make_result and the batch engine both
// route through it).
void set_payload(AnalysisResult& result, ResultPayload payload);

// An ok result with kind and metrics derived from `payload` (how the CLI
// reuses the batch CSV/JSON writers for single analyses and sweeps).
// Precondition: payload is not monostate.
[[nodiscard]] AnalysisResult make_result(std::string name,
                                         ResultPayload payload);

}  // namespace enb::analysis
