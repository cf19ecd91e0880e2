// Builds BDDs for every net of a circuit (inputs become BDD variables in
// circuit input order).
#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/circuit.hpp"

namespace enb::bdd {

// Returns one Ref per circuit node, in node-id order. With a `cone` mask
// (one flag per node, closed under fanin) only the flagged nodes are built;
// the rest stay kFalse. Throws BddLimitExceeded if the manager's node budget
// is exhausted.
[[nodiscard]] std::vector<Ref> build_node_bdds(
    Bdd& manager, const netlist::Circuit& circuit,
    const std::vector<bool>* cone = nullptr);

// Convenience: BDDs of the primary outputs only.
[[nodiscard]] std::vector<Ref> build_output_bdds(
    Bdd& manager, const netlist::Circuit& circuit);

}  // namespace enb::bdd
