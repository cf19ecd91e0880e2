#include "analysis/lint.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/static_reason.hpp"
#include "fault/untestable.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"
#include "util/json.hpp"

namespace enb::analysis {

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

LintReport lint_circuit(const netlist::Circuit& circuit,
                        const LintOptions& options) {
  LintReport report;
  report.nodes = circuit.node_count();
  std::vector<LintDiagnostic> errors;
  std::vector<LintDiagnostic> warnings;

  if (circuit.num_outputs() == 0) {
    add(errors, LintSeverity::kError, LintRule::kNoOutputs,
        circuit_site(circuit),
        "circuit has no primary outputs; every analysis cone is empty");
  }

  std::vector<bool> is_output(circuit.node_count(), false);
  for (const netlist::NodeId id : circuit.outputs()) is_output[id] = true;

  // Duplicate names: explicit names can collide with each other or with a
  // synthesized "n<id>", making .bench round-trips and fault-site reports
  // ambiguous.
  std::map<std::string, netlist::NodeId> first_by_name;
  std::set<std::string> reported_names;
  for (netlist::NodeId id = 0; id < circuit.node_count(); ++id) {
    const std::string name = circuit.node_name(id);
    const auto [it, inserted] = first_by_name.emplace(name, id);
    if (!inserted && reported_names.insert(name).second) {
      add(errors, LintSeverity::kError, LintRule::kDuplicateName, name,
          "net name '" + name + "' refers to both node " +
              std::to_string(it->second) + " and node " + std::to_string(id));
    }
  }

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

  report.diagnostics = std::move(errors);
  report.diagnostics.insert(report.diagnostics.end(),
                            std::make_move_iterator(warnings.begin()),
                            std::make_move_iterator(warnings.end()));
  return report;
}

// ---- source-level rules ----------------------------------------------------

namespace {

// Mirrors the bench_io dialect: '#' comments, names over [alnum _ . [ ] $ /],
// INPUT(x) / OUTPUT(x) declarations and `lhs = FUNC(a, b)` definitions — but
// never throws; anything the strict reader would reject becomes a diagnostic.

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '[' || c == ']' || c == '$' || c == '/';
}

std::string_view strip(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  return text;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

struct Call {
  std::string_view head;
  std::vector<std::string_view> args;
};

// Parses `HEAD(a, b, ...)`; returns nullopt on malformed shape.
std::optional<Call> parse_call(std::string_view text) {
  const std::size_t open = text.find('(');
  if (open == std::string_view::npos || text.back() != ')') return std::nullopt;
  Call call;
  call.head = strip(text.substr(0, open));
  if (call.head.empty()) return std::nullopt;
  for (const char c : call.head) {
    if (!is_name_char(c)) return std::nullopt;
  }
  std::string_view args = text.substr(open + 1, text.size() - open - 2);
  if (strip(args).empty()) return call;  // e.g. CONST0()
  while (true) {
    const std::size_t comma = args.find(',');
    const std::string_view arg =
        strip(comma == std::string_view::npos ? args : args.substr(0, comma));
    if (arg.empty()) return std::nullopt;
    for (const char c : arg) {
      if (!is_name_char(c)) return std::nullopt;
    }
    call.args.push_back(arg);
    if (comma == std::string_view::npos) break;
    args.remove_prefix(comma + 1);
  }
  return call;
}

struct SourceScan {
  // Net -> line of its first driver (INPUT declaration or definition).
  std::map<std::string, int> driven_at;
  // Gate definitions in file order, for cycle detection.
  std::map<std::string, std::vector<std::string>> gate_fanins;
  // Net -> line of first use (fanin or OUTPUT listing) with no driver seen
  // anywhere in the file.
  std::map<std::string, int> first_use;
  std::vector<LintDiagnostic> errors;
};

void note_use(SourceScan& scan, std::string_view net, int line) {
  scan.first_use.emplace(std::string(net), line);
}

void note_driver(SourceScan& scan, std::string_view net, int line) {
  const auto [it, inserted] = scan.driven_at.emplace(std::string(net), line);
  if (!inserted) {
    add(scan.errors, LintSeverity::kError, LintRule::kMultiDrivenNet,
        std::string(net),
        "net '" + std::string(net) + "' is driven on line " +
            std::to_string(line) + " and on line " +
            std::to_string(it->second));
  }
}

void scan_line(SourceScan& scan, std::string_view line, int number) {
  const auto syntax = [&](std::string message) {
    add(scan.errors, LintSeverity::kError, LintRule::kSyntax,
        "line " + std::to_string(number), std::move(message));
  };

  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    const std::optional<Call> call = parse_call(line);
    if (!call || call->args.size() != 1) {
      syntax("expected INPUT(name), OUTPUT(name), or 'net = GATE(...)': '" +
             std::string(line) + "'");
      return;
    }
    const std::optional<netlist::GateType> head =
        netlist::gate_type_from_string(call->head);
    if (head == netlist::GateType::kInput) {
      note_driver(scan, call->args[0], number);
    } else if (equals_ignore_case(call->head, "OUTPUT")) {
      note_use(scan, call->args[0], number);
    } else {
      syntax("unknown declaration '" + std::string(call->head) +
             "' (expected INPUT or OUTPUT)");
    }
    return;
  }

  const std::string_view lhs = strip(line.substr(0, eq));
  if (lhs.empty() ||
      !std::all_of(lhs.begin(), lhs.end(),
                   [](char c) { return is_name_char(c); })) {
    syntax("malformed net name before '=': '" + std::string(line) + "'");
    return;
  }
  const std::optional<Call> call = parse_call(strip(line.substr(eq + 1)));
  if (!call) {
    syntax("malformed gate call after '=': '" + std::string(line) + "'");
    return;
  }
  const std::optional<netlist::GateType> type =
      netlist::gate_type_from_string(call->head);
  if (!type || *type == netlist::GateType::kInput) {
    syntax("unknown gate type '" + std::string(call->head) +
           "' (sequential elements are not supported)");
    return;
  }
  note_driver(scan, lhs, number);
  const netlist::ArityRange arity = netlist::arity_range(*type);
  if (call->args.empty() && arity.min > 0) {
    add(scan.errors, LintSeverity::kError, LintRule::kZeroFaninGate,
        std::string(lhs),
        "gate '" + std::string(lhs) + "' (" + std::string(call->head) +
            ") has no fanins; " + std::string(netlist::to_string(*type)) +
            " needs at least " + std::to_string(arity.min));
  }
  std::vector<std::string> fanins;
  fanins.reserve(call->args.size());
  for (const std::string_view arg : call->args) {
    note_use(scan, arg, number);
    fanins.emplace_back(arg);
  }
  scan.gate_fanins.emplace(std::string(lhs), std::move(fanins));
}

// Depth-first search over the gate-definition graph; reports each back edge
// as one cycle diagnostic carrying the full "a -> b -> a" path.
void find_cycles(const SourceScan& scan,
                 std::vector<LintDiagnostic>& errors) {
  enum class Visit : std::uint8_t { kFresh, kActive, kDone };
  std::map<std::string, Visit> state;
  std::vector<std::string> path;

  const std::function<void(const std::string&)> visit =
      [&](const std::string& net) {
        state[net] = Visit::kActive;
        path.push_back(net);
        const auto it = scan.gate_fanins.find(net);
        if (it != scan.gate_fanins.end()) {
          for (const std::string& fanin : it->second) {
            const auto seen = state.find(fanin);
            const Visit mark =
                seen == state.end() ? Visit::kFresh : seen->second;
            if (mark == Visit::kFresh) {
              visit(fanin);
            } else if (mark == Visit::kActive) {
              std::string rendered;
              for (auto at = std::find(path.begin(), path.end(), fanin);
                   at != path.end(); ++at) {
                rendered += *at;
                rendered += " -> ";
              }
              rendered += fanin;
              add(errors, LintSeverity::kError, LintRule::kCycle, fanin,
                  "combinational cycle: " + rendered);
            }
          }
        }
        path.pop_back();
        state[net] = Visit::kDone;
      };

  for (const auto& [net, fanins] : scan.gate_fanins) {
    (void)fanins;
    if (const auto it = state.find(net);
        it == state.end() || it->second == Visit::kFresh) {
      visit(net);
    }
  }
}

}  // namespace

LintReport lint_bench_text(const std::string& text, const std::string& name,
                           const LintOptions& options) {
  SourceScan scan;
  std::istringstream in(text);
  std::string raw;
  for (int number = 1; std::getline(in, raw); ++number) {
    std::string_view line(raw);
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = strip(line);
    if (line.empty()) continue;
    scan_line(scan, line, number);
  }

  for (const auto& [net, line] : scan.first_use) {
    if (scan.driven_at.contains(net)) continue;
    add(scan.errors, LintSeverity::kError, LintRule::kUndrivenNet, net,
        "net '" + net + "' is used on line " + std::to_string(line) +
            " but never driven (no INPUT declaration or gate definition)");
  }
  find_cycles(scan, scan.errors);

  if (!scan.errors.empty()) {
    LintReport report;
    report.diagnostics = std::move(scan.errors);
    return report;
  }

  // Source-clean: build the netlist and run the circuit rules. Residual
  // build failures (e.g. an arity the lenient scan does not model) surface
  // as syntax diagnostics instead of exceptions.
  try {
    const netlist::Circuit circuit = netlist::read_bench_string(text, name);
    return lint_circuit(circuit, options);
  } catch (const std::exception& error) {
    LintReport report;
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
