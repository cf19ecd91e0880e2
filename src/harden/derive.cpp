#include "harden/derive.hpp"

#include <utility>

#include "sim/activity.hpp"

namespace enb::harden {

using netlist::Circuit;
using netlist::NodeId;

BaseIndex::BaseIndex(const Circuit& base)
    : num_inputs_(base.num_inputs()), hasher_(base.num_inputs()) {
  const std::vector<std::uint32_t> classes = hasher_.hash_circuit(base);
  first_node_.assign(hasher_.num_values(), netlist::kInvalidNode);
  for (NodeId id = 0; id < base.node_count(); ++id) {
    if (first_node_[classes[id]] == netlist::kInvalidNode) {
      first_node_[classes[id]] = id;
    }
  }
}

NodeId BaseIndex::first_node(std::uint32_t value) const noexcept {
  return value < first_node_.size() ? first_node_[value]
                                    : netlist::kInvalidNode;
}

std::optional<std::vector<NodeId>> node_origins(const BaseIndex& base,
                                                const Circuit& variant) {
  if (variant.num_inputs() != base.num_inputs()) return std::nullopt;
  // Hash into a copy so the shared index stays read-only; classes the base
  // never computes get fresh ids past its first_node table.
  synth::StructuralHasher hasher = base.hasher();
  const std::vector<std::uint32_t> classes = hasher.hash_circuit(variant);
  std::vector<NodeId> origins(variant.node_count());
  for (NodeId id = 0; id < variant.node_count(); ++id) {
    if (classes[id] == synth::StructuralHasher::const_id(false)) {
      origins[id] = kZeroOrigin;
      continue;
    }
    origins[id] = base.first_node(classes[id]);
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
