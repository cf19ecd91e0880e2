#include "fault/untestable.hpp"

#include <cstddef>

#include "analysis/static_reason.hpp"
#include "netlist/flat.hpp"
#include "netlist/topo.hpp"

namespace enb::fault {

using netlist::Circuit;
using netlist::GateOp;
using netlist::NodeId;
using synth::LogicValue;

namespace {

// True when a difference on fanin net `through` cannot pass gate `id`
// because another fanin (a different *net* — all fanout branches of the
// faulted net carry the fault together) is proved constant at the gate's
// controlling value.
bool blocks(const Circuit& circuit, NodeId id, NodeId through,
            const std::vector<LogicValue>& constant) {
  const GateOp op = netlist::gate_op(circuit.type(id));
  const auto fanins = circuit.fanins(id);
  if (op == GateOp::kAnd || op == GateOp::kOr) {
    const LogicValue control =
        synth::to_logic(netlist::controlling_value(op));
    for (const NodeId f : fanins) {
      if (f != through && constant[f] == control) return true;
    }
    return false;
  }
  if (op == GateOp::kMaj) {
    // Two side fanins constant and equal decide the vote regardless of the
    // third.
    LogicValue seen = LogicValue::kUnknown;
    for (const NodeId f : fanins) {
      if (f == through || constant[f] == LogicValue::kUnknown) continue;
      if (seen != LogicValue::kUnknown && constant[f] == seen) return true;
      seen = constant[f];
    }
  }
  // XOR and BUF operators always pass a difference through.
  return false;
}

}  // namespace

UntestableReport find_untestable(const Circuit& circuit,
                                 const FaultUniverse& universe) {
  UntestableReport report;
  const std::size_t n = circuit.node_count();

  // Tier-one constants only — see the header's soundness argument. Probed
  // facts would be unsound here, and their cost is the dominant term.
  const std::vector<LogicValue> constant =
      analysis::forward_constants(circuit);

  const std::vector<bool> live = netlist::reachable_from_outputs(circuit);

  std::vector<bool> is_output(n, false);
  for (const NodeId out : circuit.outputs()) is_output[out] = true;
  const netlist::Fanouts fanouts(circuit);

  // Observability: can a difference on this net reach some output through
  // at least one chain of unblocked gates? Node ids are topological, so one
  // reverse scan is the fixpoint (a net's fanouts all have higher ids).
  std::vector<bool> observable(n, false);
  for (NodeId id = static_cast<NodeId>(n); id-- > 0;) {
    if (is_output[id]) {
      observable[id] = true;
      continue;
    }
    for (const NodeId g : fanouts.of(id)) {
      if (observable[g] && !blocks(circuit, g, id, constant)) {
        observable[id] = true;
        break;
      }
    }
  }

  report.site_untestable.assign(universe.num_sites(), false);
  for (NodeId id = 0; id < n; ++id) {
    const LogicValue value = constant[id];
    if (value != LogicValue::kUnknown) ++report.constant_nets;
    if (!live[id]) {
      // No structural path to any output: nothing about this net is ever
      // observed. This is the only argument safe for *both* polarities of
      // a constant net (downstream constant proofs may depend on it).
      ++report.dead_nets;
      report.site_untestable[site_index(id, StuckAt::kZero)] = true;
      report.site_untestable[site_index(id, StuckAt::kOne)] = true;
    } else if (value == LogicValue::kZero) {
      report.site_untestable[site_index(id, StuckAt::kZero)] = true;
    } else if (value == LogicValue::kOne) {
      report.site_untestable[site_index(id, StuckAt::kOne)] = true;
    } else if (!observable[id]) {
      // Live, non-constant, but every path out crosses a gate whose side
      // input holds the controlling value in the faulty circuit too.
      ++report.blocked_nets;
      report.site_untestable[site_index(id, StuckAt::kZero)] = true;
      report.site_untestable[site_index(id, StuckAt::kOne)] = true;
    }
  }

  report.class_untestable.assign(universe.num_classes(), false);
  for (std::size_t s = 0; s < universe.num_sites(); ++s) {
    if (report.site_untestable[s]) {
      ++report.untestable_sites;
      report.class_untestable[universe.class_of(s)] = true;
    }
  }
  for (const bool u : report.class_untestable) {
    report.untestable_classes += u ? 1 : 0;
  }
  return report;
}

}  // namespace enb::fault
