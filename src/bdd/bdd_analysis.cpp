#include "bdd/bdd_analysis.hpp"

#include "bdd/circuit_to_bdd.hpp"

namespace enb::bdd {

using netlist::Circuit;
using netlist::NodeId;

std::vector<double> exact_signal_probabilities(
    const Circuit& circuit, const BddAnalysisOptions& options) {
  Bdd manager(static_cast<unsigned>(circuit.num_inputs()), options.node_limit);
  const std::vector<Ref> refs = build_node_bdds(manager, circuit);
  const std::vector<double> p(circuit.num_inputs(),
                              options.input_one_probability);
  std::vector<double> probabilities(circuit.node_count(), 0.0);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    probabilities[id] = manager.probability(refs[id], p);
  }
  return probabilities;
}

std::vector<double> exact_influences(const Circuit& circuit,
                                     const BddAnalysisOptions& options) {
  Bdd manager(static_cast<unsigned>(circuit.num_inputs()), options.node_limit);
  const std::vector<Ref> outputs = build_output_bdds(manager, circuit);
  std::vector<double> influence(circuit.num_inputs(), 0.0);
  for (unsigned var = 0; var < circuit.num_inputs(); ++var) {
    // "Any output differs" is the OR over outputs of f XOR f|flip(var).
    Ref any_diff = Bdd::kFalse;
    for (Ref f : outputs) {
      const Ref flipped = manager.flip_var(f, var);
      any_diff = manager.apply_or(any_diff, manager.apply_xor(f, flipped));
    }
    influence[var] = manager.sat_fraction(any_diff);
  }
  return influence;
}

bool bdd_equivalent(const Circuit& a, const Circuit& b,
                    const BddAnalysisOptions& options) {
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    return false;
  }
  Bdd manager(static_cast<unsigned>(a.num_inputs()), options.node_limit);
  const std::vector<Ref> fa = build_output_bdds(manager, a);
  const std::vector<Ref> fb = build_output_bdds(manager, b);
  return fa == fb;  // canonical representation: pointer equality
}

}  // namespace enb::bdd
