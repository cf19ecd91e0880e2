#include "bdd/circuit_to_bdd.hpp"

#include <stdexcept>

namespace enb::bdd {

using netlist::Circuit;
using netlist::GateOp;
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
    const auto type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    const auto fanin = [&](std::size_t i) { return refs[fanins[i]]; };
    Ref value = Bdd::kFalse;
    switch (netlist::gate_op(type)) {
      case GateOp::kInput:
        value =
            manager.var_ref(static_cast<unsigned>(circuit.input_index(id)));
        break;
      case GateOp::kConst:
        break;
      case GateOp::kBuf:
        value = fanin(0);
        break;
      case GateOp::kAnd:
        value = Bdd::kTrue;
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          value = manager.apply_and(value, fanin(i));
        }
        break;
      case GateOp::kOr:
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          value = manager.apply_or(value, fanin(i));
        }
        break;
      case GateOp::kXor:
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          value = manager.apply_xor(value, fanin(i));
        }
        break;
      case GateOp::kMaj:
        value = manager.apply_maj(fanin(0), fanin(1), fanin(2));
        break;
    }
    refs[id] =
        netlist::is_inverted(type) ? manager.apply_not(value) : value;
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
