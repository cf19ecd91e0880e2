#include "analysis/lint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/static_reason.hpp"
#include "fault/untestable.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"
#include "synth/structural_hasher.hpp"
#include "util/json.hpp"

namespace enb::analysis {

using synth::LogicValue;
using synth::StructuralHasher;

const char* to_string(LintSeverity severity) noexcept {
  switch (severity) {
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "error";
}

const char* to_string(LintRule rule) noexcept {
  switch (rule) {
    case LintRule::kSyntax:
      return "syntax";
    case LintRule::kCycle:
      return "cycle";
    case LintRule::kUndrivenNet:
      return "undriven-net";
    case LintRule::kMultiDrivenNet:
      return "multi-driven-net";
    case LintRule::kZeroFaninGate:
      return "zero-fanin-gate";
    case LintRule::kDuplicateName:
      return "duplicate-name";
    case LintRule::kNoOutputs:
      return "no-outputs";
    case LintRule::kVoterReplicas:
      return "voter-replicas";
    case LintRule::kFloatingOutput:
      return "floating-output";
    case LintRule::kUnreachable:
      return "unreachable";
    case LintRule::kUnusedInput:
      return "unused-input";
    case LintRule::kExhaustiveCap:
      return "exhaustive-cap";
    case LintRule::kConstantNet:
      return "constant-net";
    case LintRule::kRedundantGate:
      return "redundant-gate";
    case LintRule::kUntestableFault:
      return "untestable-fault";
  }
  return "syntax";
}

std::size_t LintReport::errors() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const LintDiagnostic& d) {
                      return d.severity == LintSeverity::kError;
                    }));
}

std::size_t LintReport::warnings() const noexcept {
  return diagnostics.size() - errors();
}

namespace {

void add(std::vector<LintDiagnostic>& out, LintSeverity severity,
         LintRule rule, std::string site, std::string message) {
  out.push_back(LintDiagnostic{severity, rule, std::move(site),
                               std::move(message)});
}

std::string circuit_site(const netlist::Circuit& circuit) {
  return circuit.name().empty() ? "circuit" : circuit.name();
}

}  // namespace

// ---- circuit-level rules ---------------------------------------------------

LintReport lint_errors(const netlist::Circuit& circuit) {
  LintReport report;
  report.nodes = circuit.node_count();
  if (circuit.num_outputs() == 0) {
    add(report.diagnostics, LintSeverity::kError, LintRule::kNoOutputs,
        circuit_site(circuit),
        "circuit has no primary outputs; every analysis cone is empty");
  }

  // Duplicate names: explicit names can collide with each other or with the
  // synthesized "n<id>" of an unnamed node, making .bench round-trips and
  // fault-site reports ambiguous. Only explicit names are compared; an
  // unnamed node takes part only when an explicit name has its "n<id>"
  // form. Each name is reported once, at its second-lowest node id, in
  // node-id order.
  const auto& names = circuit.node_names();
  std::vector<std::pair<std::string_view, netlist::NodeId>> holders;
  for (const auto& [id, name] : names) {
    holders.emplace_back(name, id);
    // "n<k>" without a leading zero also names node k when k is unnamed.
    if (name.size() < 2 || name[0] != 'n' ||
        (name[1] == '0' && name.size() > 2)) {
      continue;
    }
    std::uint64_t k = 0;
    const char* end = name.data() + name.size();
    const auto [ptr, ec] = std::from_chars(name.data() + 1, end, k);
    if (ec == std::errc() && ptr == end && k < circuit.node_count() &&
        !names.contains(static_cast<netlist::NodeId>(k))) {
      holders.emplace_back(name, static_cast<netlist::NodeId>(k));
    }
  }
  // Sorted by (name, id) with repeats removed, a name's holders are
  // adjacent and its lowest two ids come first.
  std::sort(holders.begin(), holders.end());
  holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
  std::vector<std::pair<netlist::NodeId, std::size_t>> duplicates;
  for (std::size_t i = 0; i + 1 < holders.size(); ++i) {
    if (holders[i].first == holders[i + 1].first &&
        (i == 0 || holders[i - 1].first != holders[i].first)) {
      duplicates.emplace_back(holders[i + 1].second, i);
    }
  }
  std::sort(duplicates.begin(), duplicates.end());
  for (const auto& [id, first] : duplicates) {
    const std::string name(holders[first].first);
    add(report.diagnostics, LintSeverity::kError, LintRule::kDuplicateName,
        name,
        "net name '" + name + "' refers to both node " +
            std::to_string(holders[first].second) + " and node " +
            std::to_string(id));
  }
  return report;
}

LintReport lint_circuit(const netlist::Circuit& circuit,
                        const LintOptions& options) {
  LintReport report = lint_errors(circuit);
  // Every rule below warns; its findings append after the errors.
  std::vector<LintDiagnostic>& warnings = report.diagnostics;

  std::vector<bool> is_output(circuit.node_count(), false);
  for (const netlist::NodeId id : circuit.outputs()) is_output[id] = true;

  // A MAJ voter whose fanins are not distinct does not vote over independent
  // replicas: a duplicated driver holds a guaranteed majority, so the
  // redundancy analysis would credit masking the structure cannot deliver.
  // A warning, not an error: multiplex restorative stages legitimately wire
  // one bundle wire into several voter slots (the bundle is the replica
  // set), so structure alone cannot prove a defect. allow_voter_replicas
  // silences the rule for those variants.
  if (!options.allow_voter_replicas) {
    for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
      if (circuit.type(id) != netlist::GateType::kMaj) continue;
      const std::span<const netlist::NodeId> fanins = circuit.fanins(id);
      const std::set<netlist::NodeId> distinct(fanins.begin(), fanins.end());
      if (distinct.size() < fanins.size()) {
        add(warnings, LintSeverity::kWarning, LintRule::kVoterReplicas,
            circuit.node_name(id),
            "majority voter '" + circuit.node_name(id) + "' has only " +
                std::to_string(distinct.size()) + " distinct driver(s) for " +
                std::to_string(fanins.size()) +
                " fanins; the duplicated replica always wins the vote");
      }
    }
  }

  const std::vector<int> fanout = netlist::fanout_counts(circuit);
  const std::vector<bool> reachable = netlist::reachable_from_outputs(circuit);
  for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
    const netlist::GateType type = circuit.type(id);
    const std::string name = circuit.node_name(id);
    if (netlist::counts_as_gate(type)) {
      if (fanout[id] == 0 && !is_output[id]) {
        add(warnings, LintSeverity::kWarning, LintRule::kFloatingOutput, name,
            "gate '" + name +
                "' drives nothing and is not a primary output; it still "
                "counts toward S0 and switching energy");
      } else if (!reachable[id]) {
        add(warnings, LintSeverity::kWarning, LintRule::kUnreachable, name,
            "gate '" + name +
                "' is outside every primary-output cone (dead logic)");
      }
    } else if (netlist::is_input(type) && fanout[id] == 0 && !is_output[id]) {
      add(warnings, LintSeverity::kWarning, LintRule::kUnusedInput, name,
          "primary input '" + name + "' feeds no gate and no output");
    }
  }

  // Semantic rules, backed by proofs instead of syntax. Constant nets come
  // from the implication engine's fixpoint (probing included: a probe-learned
  // constant is a sound statement about the fault-free circuit, which is all
  // the linter speaks about). Redundant gates come from structural hashing
  // with those constants folded in. Untestable faults come from the
  // tier-one-only prover in fault/untestable.hpp.
  const ConstantFacts facts = analyze_constants(circuit);
  for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
    if (!netlist::counts_as_gate(circuit.type(id))) continue;
    if (facts.proved[id] == LogicValue::kUnknown) continue;
    const char* value = facts.proved[id] == LogicValue::kOne ? "1" : "0";
    add(warnings, LintSeverity::kWarning, LintRule::kConstantNet,
        circuit.node_name(id),
        "gate '" + circuit.node_name(id) + "' evaluates to " + value +
            " under every input assignment; fold it to a constant");
  }

  {
    StructuralHasher hasher(circuit.num_inputs());
    const std::vector<std::uint32_t> values =
        hasher.hash_circuit(circuit, &facts.proved);
    std::vector<netlist::NodeId> first_node(hasher.num_values(),
                                            netlist::kInvalidNode);
    for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
      const netlist::NodeId earlier = first_node[values[id]];
      if (earlier == netlist::kInvalidNode) {
        first_node[values[id]] = id;
        continue;
      }
      // Buffers exist to alias nets and constants are constant-net's
      // business; warn only on gates recomputing earlier logic.
      if (!netlist::counts_as_gate(circuit.type(id))) continue;
      if (circuit.type(id) == netlist::GateType::kBuf) continue;
      if (facts.proved[id] != LogicValue::kUnknown) continue;
      add(warnings, LintSeverity::kWarning, LintRule::kRedundantGate,
          circuit.node_name(id),
          "gate '" + circuit.node_name(id) +
              "' computes the same function as net '" +
              circuit.node_name(earlier) + "'; the gates can be merged");
    }
  }

  if (circuit.num_outputs() > 0) {
    const fault::FaultUniverse universe = fault::FaultUniverse::build(circuit);
    const fault::UntestableReport untestable =
        fault::find_untestable(circuit, universe);
    if (untestable.untestable_classes > 0) {
      add(warnings, LintSeverity::kWarning, LintRule::kUntestableFault,
          circuit_site(circuit),
          std::to_string(untestable.untestable_classes) + " of " +
              std::to_string(universe.num_classes()) +
              " stuck-at classes are statically untestable (" +
              std::to_string(untestable.constant_nets) + " constant, " +
              std::to_string(untestable.dead_nets) + " dead, " +
              std::to_string(untestable.blocked_nets) +
              " blocked net(s)); campaigns can prune them with "
              "prune_untestable");
    }
  }

  if (options.exhaustive_cap >= 0 &&
      circuit.num_inputs() >
          static_cast<std::size_t>(options.exhaustive_cap)) {
    add(warnings, LintSeverity::kWarning, LintRule::kExhaustiveCap,
        circuit_site(circuit),
        "circuit has " + std::to_string(circuit.num_inputs()) +
            " inputs; exhaustive fault campaigns throw ExhaustiveCapError "
            "above " +
            std::to_string(options.exhaustive_cap) +
            " (use a sampled universe)");
  }

  return report;
}

// ---- source-level rules ----------------------------------------------------

namespace {

LintRule rule_of(netlist::BenchIssueKind kind) noexcept {
  using Kind = netlist::BenchIssueKind;
  switch (kind) {
    case Kind::kSyntax: return LintRule::kSyntax;
    case Kind::kMultiDriven: return LintRule::kMultiDrivenNet;
    case Kind::kZeroFanin: return LintRule::kZeroFaninGate;
    case Kind::kUndriven: return LintRule::kUndrivenNet;
    case Kind::kCycle: return LintRule::kCycle;
  }
  return LintRule::kSyntax;
}

}  // namespace

LintReport lint_bench_text(const std::string& text, const std::string& name,
                           const LintOptions& options) {
  netlist::BenchSource source = netlist::scan_bench(text);
  LintReport report;
  for (netlist::BenchIssue& issue : source.issues) {
    add(report.diagnostics, LintSeverity::kError, rule_of(issue.kind),
        std::move(issue.site), std::move(issue.message));
  }
  if (!report.diagnostics.empty()) return report;

  // Source-clean: build the netlist and run the circuit rules. A gate whose
  // operand count its type rejects surfaces as a syntax diagnostic.
  try {
    return lint_circuit(netlist::build_bench(source, name).circuit, options);
  } catch (const netlist::BenchParseError& error) {
    add(report.diagnostics, LintSeverity::kError, LintRule::kSyntax, name,
        error.what());
    return report;
  }
}

void write_lint_text(std::ostream& out, const LintReport& report) {
  for (const LintDiagnostic& d : report.diagnostics) {
    out << to_string(d.severity) << '[' << to_string(d.rule) << "] " << d.site
        << ": " << d.message << '\n';
  }
  out << report.errors() << " errors, " << report.warnings() << " warnings\n";
}

void write_lint_json(std::ostream& out, const std::string& name,
                     const LintReport& report) {
  out << "{\"name\": \"";
  util::json_escape(out, name);
  out << "\", \"nodes\": " << report.nodes
      << ", \"errors\": " << report.errors()
      << ", \"warnings\": " << report.warnings() << ", \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const LintDiagnostic& d = report.diagnostics[i];
    out << (i == 0 ? "" : ", ") << "{\"severity\": \""
        << to_string(d.severity) << "\", \"rule\": \"" << to_string(d.rule)
        << "\", \"site\": \"";
    util::json_escape(out, d.site);
    out << "\", \"message\": \"";
    util::json_escape(out, d.message);
    out << "\"}";
  }
  out << "]}\n";
}

}  // namespace enb::analysis
