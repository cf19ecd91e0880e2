#include "harden/derive.hpp"

#include <algorithm>
#include <utility>

#include "netlist/gate_type.hpp"
#include "sim/activity.hpp"

namespace enb::harden {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

// Every base node resolves the same way a variant node does. A node whose
// key is new becomes the key's canonical node, so a base gate and each of
// its replicas land on the same canonical node, even through duplicated
// base gates or gates the rules collapse.
BaseIndex::BaseIndex(const Circuit& base) : base_(&base) {
  std::vector<NodeId> canonical(base.node_count());
  for (NodeId id = 0; id < base.node_count(); ++id) {
    const GateType type = base.type(id);
    if (netlist::is_input(type)) {
      canonical[id] = id;
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(base.fanins(id).size());
    for (const NodeId fanin : base.fanins(id)) {
      fanins.push_back(canonical[fanin]);
    }
    if (netlist::is_commutative(type)) std::sort(fanins.begin(), fanins.end());
    canonical[id] = origin(type, fanins);
    if (canonical[id] == netlist::kInvalidNode) {
      nodes_.emplace(std::make_pair(type, std::move(fanins)), id);
      canonical[id] = id;
    }
  }
}

NodeId BaseIndex::origin(GateType type, std::vector<NodeId> fanins) const {
  if (netlist::is_commutative(type)) std::sort(fanins.begin(), fanins.end());
  const auto it = nodes_.find(std::make_pair(type, fanins));
  if (it != nodes_.end()) return it->second;
  if (type == GateType::kConst0) return kZeroOrigin;
  const bool same = !fanins.empty() &&
                    std::all_of(fanins.begin(), fanins.end(),
                                [&](NodeId f) { return f == fanins.front(); });
  if (same) {
    // Idempotent voters and their two-input AND/OR netlists pass x through;
    // XOR over an even number of copies of x cancels to 0.
    if (type == GateType::kAnd || type == GateType::kOr ||
        type == GateType::kMaj) {
      return fanins.front();
    }
    if (type == GateType::kXor && fanins.size() % 2 == 0) return kZeroOrigin;
  }
  return netlist::kInvalidNode;
}

std::optional<std::vector<NodeId>> node_origins(const BaseIndex& base,
                                                const Circuit& variant) {
  if (variant.num_inputs() != base.base().num_inputs()) return std::nullopt;
  std::vector<NodeId> origins(variant.node_count());
  for (NodeId id = 0; id < variant.node_count(); ++id) {
    const GateType type = variant.type(id);
    if (netlist::is_input(type)) {
      origins[id] = base.base().inputs()[static_cast<std::size_t>(
          variant.input_index(id))];
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(variant.fanins(id).size());
    for (const NodeId fanin : variant.fanins(id)) {
      fanins.push_back(origins[fanin]);
    }
    origins[id] = base.origin(type, std::move(fanins));
    if (origins[id] == netlist::kInvalidNode) return std::nullopt;
  }
  return origins;
}

std::optional<core::ProfileExtraction> derive_profile(
    const BaseIndex& base, const core::ProfileExtraction& base_profile,
    const HardenedCircuit& variant) {
  const Circuit& circuit = variant.circuit;
  const std::optional<std::vector<NodeId>> origins =
      node_origins(base, circuit);
  if (!origins.has_value()) return std::nullopt;
  for (std::size_t pos = variant.base_outputs; pos < circuit.num_outputs();
       ++pos) {
    if ((*origins)[circuit.outputs()[pos]] != kZeroOrigin) return std::nullopt;
  }

  const sim::ActivityResult& from = base_profile.activity;
  sim::ActivityResult activity;
  activity.sample_pairs = from.sample_pairs;
  activity.one_probability.resize(circuit.node_count(), 0.0);
  activity.toggle_rate.resize(circuit.node_count(), 0.0);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const NodeId origin = (*origins)[id];
    if (origin == kZeroOrigin) continue;
    activity.one_probability[id] = from.one_probability[origin];
    activity.toggle_rate[id] = from.toggle_rate[origin];
  }
  sim::finalize_gate_averages(circuit, activity);
  return core::assemble_profile(circuit, std::move(activity),
                                base_profile.profile.sensitivity_s,
                                base_profile.profile.sensitivity_exact);
}

}  // namespace enb::harden
