#include "harden/transform.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_model.hpp"
#include "ft/nmr.hpp"
#include "netlist/gate_type.hpp"
#include "netlist/transform.hpp"

namespace enb::harden {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

std::string variant_name(const Circuit& base, const TransformOptions& options) {
  std::string name = base.name().empty() ? "circuit" : base.name();
  name += '_';
  name += to_string(options.style);
  name += '_';
  name += to_string(options.granularity);
  if (options.style == Style::kSelective) {
    name += "_k" + std::to_string(options.top_k);
  }
  return name;
}

// Appends a 3-way majority vote and accounts its gates.
NodeId vote(Circuit& c, NodeId a, NodeId b, NodeId d, ft::VoterStyle style,
            std::size_t& voter_gates) {
  const std::size_t before = c.gate_count();
  const NodeId out = ft::append_maj3(c, a, b, d, style);
  voter_gates += c.gate_count() - before;
  return out;
}

// Rebuilds the base input interface in `out` (names preserved) and returns
// the substitution vector append_circuit instantiations wire to.
std::vector<NodeId> input_image(const Circuit& base, Circuit& out) {
  std::vector<NodeId> subs;
  subs.reserve(base.num_inputs());
  for (const NodeId id : base.inputs()) {
    subs.push_back(out.add_input(base.node_name(id)));
  }
  return subs;
}

// Marks every node inside the union of the selected outputs' cones.
std::vector<bool> cone_membership(const Circuit& base,
                                  std::span<const std::size_t> selected) {
  std::vector<bool> in_cone(base.node_count(), false);
  std::vector<NodeId> stack;
  for (const std::size_t pos : selected) {
    const NodeId root = base.outputs()[pos];
    if (!in_cone[root]) {
      in_cone[root] = true;
      stack.push_back(root);
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const NodeId fanin : base.fanins(id)) {
      if (!in_cone[fanin]) {
        in_cone[fanin] = true;
        stack.push_back(fanin);
      }
    }
  }
  return in_cone;
}

// Per-gate TMR: every gate marked in `replicate` (all gates when null)
// becomes three replicas over the voted fanin values plus a voter, so
// downstream logic always consumes the voted net.
HardenedCircuit tmr_gate_level(const Circuit& base,
                               const TransformOptions& options,
                               const std::vector<bool>* replicate) {
  HardenedCircuit result;
  Circuit out(variant_name(base, options));
  std::vector<NodeId> map(base.node_count(), netlist::kInvalidNode);
  for (NodeId id = 0; id < base.node_count(); ++id) {
    const GateType type = base.type(id);
    if (type == GateType::kInput) {
      map[id] = out.add_input(base.node_name(id));
      continue;
    }
    if (netlist::is_constant(type)) {
      map[id] = out.add_const(type == GateType::kConst1);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(base.fanins(id).size());
    for (const NodeId fanin : base.fanins(id)) fanins.push_back(map[fanin]);
    if (replicate != nullptr && !(*replicate)[id]) {
      map[id] = out.add_gate(type, std::move(fanins));
      continue;
    }
    const NodeId a = out.add_gate(type, fanins);
    const NodeId b = out.add_gate(type, fanins);
    const NodeId c = out.add_gate(type, std::move(fanins));
    map[id] = vote(out, a, b, c, options.voter, result.voter_gates);
  }
  for (std::size_t pos = 0; pos < base.num_outputs(); ++pos) {
    out.add_output(map[base.outputs()[pos]], base.output_name(pos));
  }
  result.circuit = std::move(out);
  return result;
}

// Per-cone TMR: each output's cone is instantiated three times
// independently (shared base logic is deliberately not shared between
// replicas or between cones) and voted at the output.
HardenedCircuit tmr_cone_level(const Circuit& base,
                               const TransformOptions& options) {
  HardenedCircuit result;
  Circuit out(variant_name(base, options));
  const std::vector<NodeId> subs = input_image(base, out);
  for (std::size_t pos = 0; pos < base.num_outputs(); ++pos) {
    const std::size_t positions[] = {pos};
    const Circuit cone = netlist::extract_cone(base, positions);
    const NodeId a = netlist::append_circuit(out, cone, subs)[0];
    const NodeId b = netlist::append_circuit(out, cone, subs)[0];
    const NodeId c = netlist::append_circuit(out, cone, subs)[0];
    const NodeId voted = vote(out, a, b, c, options.voter, result.voter_gates);
    out.add_output(voted, base.output_name(pos));
  }
  result.circuit = std::move(out);
  return result;
}

// Per-gate DWC: every gate gets one replica over the copy-A fanins and an
// XOR comparator; the comparators aggregate into a single "dwc_check" PO, so
// any single gate fault that manifests locally raises the flag — including
// at patterns where it also corrupts a primary output.
HardenedCircuit dwc_gate_level(const Circuit& base,
                               const TransformOptions& options) {
  HardenedCircuit result;
  Circuit out = netlist::clone(base);
  out.set_name(variant_name(base, options));
  std::vector<NodeId> comparators;
  for (NodeId id = 0; id < base.node_count(); ++id) {
    const GateType type = base.type(id);
    if (type == GateType::kInput || netlist::is_constant(type)) continue;
    std::vector<NodeId> fanins(base.fanins(id).begin(), base.fanins(id).end());
    const NodeId replica = out.add_gate(type, std::move(fanins));
    comparators.push_back(out.add_gate(GateType::kXor, id, replica));
    result.voter_gates += 1;  // the comparator; the replica is counted below
  }
  if (!comparators.empty()) {
    NodeId check = comparators.front();
    if (comparators.size() > 1) {
      check = out.add_gate(GateType::kOr, std::move(comparators));
      result.voter_gates += 1;
    }
    out.add_output(check, "dwc_check");
    result.check_outputs = 1;
  }
  result.circuit = std::move(out);
  return result;
}

// Per-cone DWC: each output cone duplicated independently; the comparator
// of output `o` is exposed as check PO "<o>_check" after the base outputs.
HardenedCircuit dwc_cone_level(const Circuit& base,
                               const TransformOptions& options) {
  HardenedCircuit result;
  Circuit out = netlist::clone(base);
  out.set_name(variant_name(base, options));
  const std::vector<NodeId> subs(out.inputs().begin(), out.inputs().end());
  for (std::size_t pos = 0; pos < base.num_outputs(); ++pos) {
    const std::size_t positions[] = {pos};
    const Circuit cone = netlist::extract_cone(base, positions);
    const NodeId duplicate = netlist::append_circuit(out, cone, subs)[0];
    const NodeId comparator =
        out.add_gate(GateType::kXor, out.outputs()[pos], duplicate);
    result.voter_gates += 1;
    out.add_output(comparator, base.output_name(pos) + "_check");
    result.check_outputs += 1;
  }
  result.circuit = std::move(out);
  return result;
}

// Whole-circuit DWC: one shared duplicate, one comparator/check PO per
// primary output.
HardenedCircuit dwc_output_level(const Circuit& base,
                                 const TransformOptions& options) {
  HardenedCircuit result;
  Circuit out = netlist::clone(base);
  out.set_name(variant_name(base, options));
  const std::vector<NodeId> subs(out.inputs().begin(), out.inputs().end());
  const std::vector<NodeId> duplicate = netlist::append_circuit(out, base, subs);
  for (std::size_t pos = 0; pos < base.num_outputs(); ++pos) {
    const NodeId comparator =
        out.add_gate(GateType::kXor, out.outputs()[pos], duplicate[pos]);
    result.voter_gates += 1;
    out.add_output(comparator, base.output_name(pos) + "_check");
    result.check_outputs += 1;
  }
  result.circuit = std::move(out);
  return result;
}

// Selective TMR over the top-K cones of `order`. Gate granularity restricts
// per-gate TMR to the selected cones' union; cone/output granularity keeps
// one shared copy of the base and adds two extra cone replicas — per cone
// independently (kCone) or as one shared union-cone block (kOutput) — voted
// at the selected outputs only.
HardenedCircuit selective_level(const Circuit& base,
                                const TransformOptions& options,
                                std::span<const std::size_t> order) {
  std::vector<std::size_t> ranking(order.begin(), order.end());
  if (ranking.empty()) {
    ranking.resize(base.num_outputs());
    std::iota(ranking.begin(), ranking.end(), std::size_t{0});
  }
  if (ranking.size() != base.num_outputs()) {
    throw std::invalid_argument(
        "harden: selective ranking must cover every output position");
  }
  const std::size_t k =
      std::min<std::size_t>(options.top_k, base.num_outputs());
  std::vector<std::size_t> selected(ranking.begin(), ranking.begin() + k);
  std::sort(selected.begin(), selected.end());

  if (options.granularity == Granularity::kGate) {
    const std::vector<bool> in_cone = cone_membership(base, selected);
    HardenedCircuit result = tmr_gate_level(base, options, &in_cone);
    result.protected_outputs = std::move(selected);
    return result;
  }

  HardenedCircuit result;
  Circuit out(variant_name(base, options));
  const std::vector<NodeId> subs = input_image(base, out);
  const std::vector<NodeId> copy_a = netlist::append_circuit(out, base, subs);
  std::vector<NodeId> voted(base.num_outputs(), netlist::kInvalidNode);
  if (!selected.empty()) {
    if (options.granularity == Granularity::kCone) {
      for (const std::size_t pos : selected) {
        const std::size_t positions[] = {pos};
        const Circuit cone = netlist::extract_cone(base, positions);
        const NodeId b = netlist::append_circuit(out, cone, subs)[0];
        const NodeId c = netlist::append_circuit(out, cone, subs)[0];
        voted[pos] =
            vote(out, copy_a[pos], b, c, options.voter, result.voter_gates);
      }
    } else {
      const Circuit cone = netlist::extract_cone(base, selected);
      const std::vector<NodeId> b = netlist::append_circuit(out, cone, subs);
      const std::vector<NodeId> c = netlist::append_circuit(out, cone, subs);
      for (std::size_t j = 0; j < selected.size(); ++j) {
        voted[selected[j]] = vote(out, copy_a[selected[j]], b[j], c[j],
                                  options.voter, result.voter_gates);
      }
    }
  }
  for (std::size_t pos = 0; pos < base.num_outputs(); ++pos) {
    const NodeId driver =
        voted[pos] != netlist::kInvalidNode ? voted[pos] : copy_a[pos];
    out.add_output(driver, base.output_name(pos));
  }
  result.circuit = std::move(out);
  result.protected_outputs = std::move(selected);
  return result;
}

}  // namespace

std::vector<std::size_t> rank_output_cones(
    const netlist::Circuit& base, const fault::FaultCampaignResult& campaign) {
  const std::size_t outputs = base.num_outputs();
  std::vector<std::uint64_t> score(outputs, 0);
  const std::size_t classes =
      std::min(campaign.first_detect_output.size(),
               campaign.first_detect_pattern.size());
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const std::uint32_t output = campaign.first_detect_output[cls];
    if (campaign.first_detect_pattern[cls] == fault::kNotDetected ||
        output >= outputs) {
      continue;
    }
    ++score[output];
  }
  std::vector<std::size_t> order(outputs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&score](std::size_t a, std::size_t b) {
              if (score[a] != score[b]) return score[a] > score[b];
              return a < b;
            });
  return order;
}

HardenedCircuit harden_transform(const netlist::Circuit& base,
                                 const TransformOptions& options,
                                 std::span<const std::size_t> ranked) {
  if (base.num_outputs() == 0) {
    throw std::invalid_argument("harden: base circuit has no outputs");
  }
  HardenedCircuit result;
  switch (options.style) {
    case Style::kTmr:
      switch (options.granularity) {
        case Granularity::kGate:
          result = tmr_gate_level(base, options, nullptr);
          break;
        case Granularity::kCone:
          result = tmr_cone_level(base, options);
          break;
        case Granularity::kOutput: {
          // Whole-circuit TMR is NMR at N = 3: three shared replicas of
          // the complete netlist, one voter per primary output.
          ft::NmrResult nmr = ft::nmr_transform(base, {3, options.voter});
          result.circuit = std::move(nmr.circuit);
          result.circuit.set_name(variant_name(base, options));
          result.voter_gates = nmr.voter_gates;
          break;
        }
      }
      break;
    case Style::kDwc:
      switch (options.granularity) {
        case Granularity::kGate:
          result = dwc_gate_level(base, options);
          break;
        case Granularity::kCone:
          result = dwc_cone_level(base, options);
          break;
        case Granularity::kOutput:
          result = dwc_output_level(base, options);
          break;
      }
      break;
    case Style::kSelective:
      result = selective_level(base, options, ranked);
      break;
  }
  result.base_outputs = base.num_outputs();
  if (options.style != Style::kSelective) {
    result.protected_outputs.resize(base.num_outputs());
    std::iota(result.protected_outputs.begin(), result.protected_outputs.end(),
              std::size_t{0});
  }
  const std::size_t overhead = result.circuit.gate_count() -
                               std::min(result.circuit.gate_count(),
                                        base.gate_count() + result.voter_gates);
  result.replica_gates = overhead;
  return result;
}

analysis::CecResult verify_hardened(const netlist::Circuit& base,
                                    const HardenedCircuit& variant,
                                    const analysis::CecOptions& options) {
  if (variant.check_outputs == 0) {
    return analysis::check_equivalence(base, variant.circuit, options);
  }
  std::vector<std::size_t> positions(variant.base_outputs);
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  const netlist::Circuit primary =
      netlist::extract_cone(variant.circuit, positions);
  return analysis::check_equivalence(base, primary, options);
}

analysis::LintReport lint_hardened(const HardenedCircuit& variant) {
  return analysis::lint_errors(variant.circuit);
}

}  // namespace enb::harden
