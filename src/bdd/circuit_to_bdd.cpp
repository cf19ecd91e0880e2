#include "bdd/circuit_to_bdd.hpp"

#include <stdexcept>

namespace enb::bdd {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

std::vector<Ref> build_node_bdds(Bdd& manager, const Circuit& circuit,
                                 const std::vector<bool>* cone) {
  if (manager.num_vars() < circuit.num_inputs()) {
    throw std::invalid_argument(
        "build_node_bdds: manager has fewer variables than circuit inputs");
  }
  std::vector<Ref> refs(circuit.node_count(), Bdd::kFalse);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (cone != nullptr && !(*cone)[id]) continue;
    const auto& node = circuit.node(id);
    const auto fanin = [&](std::size_t i) { return refs[node.fanins[i]]; };
    switch (node.type) {
      case GateType::kInput:
        refs[id] = manager.var_ref(
            static_cast<unsigned>(circuit.input_index(id)));
        break;
      case GateType::kConst0:
        refs[id] = Bdd::kFalse;
        break;
      case GateType::kConst1:
        refs[id] = Bdd::kTrue;
        break;
      case GateType::kBuf:
        refs[id] = fanin(0);
        break;
      case GateType::kNot:
        refs[id] = manager.apply_not(fanin(0));
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        Ref acc = Bdd::kTrue;
        for (std::size_t i = 0; i < node.fanins.size(); ++i) {
          acc = manager.apply_and(acc, fanin(i));
        }
        refs[id] = node.type == GateType::kAnd ? acc : manager.apply_not(acc);
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        Ref acc = Bdd::kFalse;
        for (std::size_t i = 0; i < node.fanins.size(); ++i) {
          acc = manager.apply_or(acc, fanin(i));
        }
        refs[id] = node.type == GateType::kOr ? acc : manager.apply_not(acc);
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        Ref acc = Bdd::kFalse;
        for (std::size_t i = 0; i < node.fanins.size(); ++i) {
          acc = manager.apply_xor(acc, fanin(i));
        }
        refs[id] = node.type == GateType::kXor ? acc : manager.apply_not(acc);
        break;
      }
      case GateType::kMaj:
        refs[id] = manager.apply_maj(fanin(0), fanin(1), fanin(2));
        break;
    }
  }
  return refs;
}

std::vector<Ref> build_output_bdds(Bdd& manager, const Circuit& circuit) {
  const std::vector<Ref> refs = build_node_bdds(manager, circuit);
  std::vector<Ref> outputs;
  outputs.reserve(circuit.num_outputs());
  for (NodeId id : circuit.outputs()) outputs.push_back(refs[id]);
  return outputs;
}

}  // namespace enb::bdd
