// Exact circuit analyses built on the BDD package: signal probabilities,
// input influences, and formal equivalence — independent oracles for the
// simulation-based estimators in src/sim.
#pragma once

#include <vector>

#include "bdd/bdd.hpp"  // node budgets; BddLimitExceeded is the error contract
#include "netlist/circuit.hpp"

namespace enb::bdd {

struct BddAnalysisOptions {
  std::size_t node_limit = std::size_t{1} << 22;
  double input_one_probability = 0.5;
};

// Exact one-probability of every node.
[[nodiscard]] std::vector<double> exact_signal_probabilities(
    const netlist::Circuit& circuit, const BddAnalysisOptions& options = {});

// Exact per-input influence P[f(x) != f(x ^ e_i)] (any output differs) under
// uniform inputs.
[[nodiscard]] std::vector<double> exact_influences(
    const netlist::Circuit& circuit, const BddAnalysisOptions& options = {});

// Formal equivalence of two circuits with positionally-matched interfaces.
[[nodiscard]] bool bdd_equivalent(const netlist::Circuit& a,
                                  const netlist::Circuit& b,
                                  const BddAnalysisOptions& options = {});

}  // namespace enb::bdd
