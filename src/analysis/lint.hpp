// Structural netlist linter.
//
// The paper's pipeline (and every engine in this repo) assumes structurally
// well-formed combinational netlists; gen/ builders, hand-written .bench
// files, and ft/ transforms can silently produce dead logic, dangling
// nets, or redundancy schemes that do not actually vote. The linter is the
// static-analysis pass that surfaces those defects as typed diagnostics
// before they show up as wrong coverage numbers deep inside a campaign.
//
// Entry points:
//   lint_errors      — the error rules alone over a built circuit, for
//                      callers that gate on clean() and read no warnings.
//   lint_circuit     — rules over a built netlist::Circuit. The IR is
//                      append-only (fanins must exist, so cycles and
//                      undriven nets are unrepresentable), which leaves the
//                      reachability/fanout/redundancy rules.
//   lint_bench_text  — rules over raw .bench source, where the defects the
//                      IR cannot represent live: combinational cycles (with
//                      the cycle path), undriven and multi-driven nets,
//                      zero-fanin gates, unparseable lines. These are the
//                      issues of netlist::scan_bench, the one definition of
//                      the dialect. When the source is clean, the circuit
//                      is built from the same scan and the circuit rules run
//                      too.
//
// Severity: kError marks netlists the engines would mis-analyze or reject
// (cycles, undriven/multi-driven nets, no outputs); kWarning marks
// legal-but-suspect structure (dead logic, unused inputs, starved voters,
// inputs past the exhaustive-campaign cap). gen/'s suite circuits lint with
// zero errors; scale-suite circuits legitimately warn about the exhaustive
// cap.
//
// Beyond the structural rules, three semantic rules are backed by proofs
// from the static reasoning engine (analysis/static_reason.hpp) and the
// untestability prover (fault/untestable.hpp) rather than syntax:
//   constant-net     — a gate net proved to hold the same value under every
//                      input assignment (implication fixpoint + probing).
//   redundant-gate   — a gate whose canonical strash value was already
//                      computed by an earlier net; the diagnostic names it.
//   untestable-fault — summary warning when the circuit carries stuck-at
//                      classes no pattern can ever detect (prune them with
//                      faultsim --prune-untestable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "netlist/circuit.hpp"

namespace enb::analysis {

enum class LintSeverity : std::uint8_t { kWarning, kError };

[[nodiscard]] const char* to_string(LintSeverity severity) noexcept;

enum class LintRule : std::uint8_t {
  kSyntax,          // unparseable .bench line
  kCycle,           // combinational cycle (message carries the path)
  kUndrivenNet,     // net used but never defined or declared INPUT
  kMultiDrivenNet,  // net defined more than once (or INPUT + definition)
  kZeroFaninGate,   // gate call with no operands where the type needs some
  kDuplicateName,   // two nodes share one net name
  kNoOutputs,       // circuit has no primary outputs
  kVoterReplicas,   // MAJ voter fed by fewer distinct drivers than fanins
  kFloatingOutput,  // gate output feeding nothing and not a primary output
  kUnreachable,     // live-looking gate outside every primary-output cone
  kUnusedInput,     // primary input feeding nothing and not an output
  kExhaustiveCap,   // inputs exceed fault::kMaxExhaustiveCampaignInputs
  kConstantNet,     // gate net proved constant by the implication engine
  kRedundantGate,   // gate strash-equivalent to an earlier net
  kUntestableFault, // stuck-at classes proved statically untestable
};

// Stable kebab-case rule id ("undriven-net") for CLI/JSON output and tests.
[[nodiscard]] const char* to_string(LintRule rule) noexcept;

struct LintDiagnostic {
  LintSeverity severity = LintSeverity::kError;
  LintRule rule = LintRule::kSyntax;
  // The net/gate name the finding anchors to ("line N" for syntax errors).
  std::string site;
  std::string message;

  friend bool operator==(const LintDiagnostic&,
                         const LintDiagnostic&) = default;
};

struct LintOptions {
  // Logical-input count above which exhaustive fault campaigns throw
  // ExhaustiveCapError; the linter warns at the same threshold.
  int exhaustive_cap = fault::kMaxExhaustiveCampaignInputs;
  // Suppress the voter-replicas warning entirely. Multiplex restorative
  // stages legitimately route one bundle wire into several voter slots, so
  // ft/ multiplexing variants set this to lint clean.
  bool allow_voter_replicas = false;

  friend bool operator==(const LintOptions&, const LintOptions&) = default;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  // Nodes inspected; 0 when source-level errors prevented building the
  // circuit at all.
  std::uint64_t nodes = 0;

  [[nodiscard]] std::size_t errors() const noexcept;
  [[nodiscard]] std::size_t warnings() const noexcept;
  [[nodiscard]] bool clean() const noexcept { return errors() == 0; }

  friend bool operator==(const LintReport&, const LintReport&) = default;
};

// The error rules alone over a built circuit: no-outputs, then every
// duplicate-name in node-id order. These are exactly the errors
// lint_circuit reports, so `lint_errors(c).errors() ==
// lint_circuit(c).errors()` and clean() agrees, but no warning rule runs —
// in particular no constant proof, strash or untestability pass. Callers
// that only gate on errors (the harden sweep) use this.
[[nodiscard]] LintReport lint_errors(const netlist::Circuit& circuit);

// Lints a built circuit (see the rule list above; source-only rules cannot
// fire here): lint_errors, then the warning rules. Diagnostics are ordered
// errors first, then warnings, each group in discovery (node-id) order —
// deterministic for any thread count.
[[nodiscard]] LintReport lint_circuit(const netlist::Circuit& circuit,
                                      const LintOptions& options = {});

// Lints .bench source text: one diagnostic per netlist::scan_bench issue,
// then — when there are none and the netlist builds — the circuit rules as
// well. Never throws BenchParseError; parse failures become diagnostics, so
// a text is flagged here exactly when the reader rejects it.
[[nodiscard]] LintReport lint_bench_text(const std::string& text,
                                         const std::string& name = "bench",
                                         const LintOptions& options = {});

// Renders one "severity[rule] site: message" row per diagnostic plus a
// closing "N errors, M warnings" summary line.
void write_lint_text(std::ostream& out, const LintReport& report);

// Renders the report as one JSON object {"name", "nodes", "errors",
// "warnings", "diagnostics": [{"severity", "rule", "site", "message"}]}
// plus a newline. Lint results carry typed diagnostics, not (metric, value)
// rows, so this is their own shape rather than the batch result writer's.
void write_lint_json(std::ostream& out, const std::string& name,
                     const LintReport& report);

}  // namespace enb::analysis
