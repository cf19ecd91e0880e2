// The mapping pipeline onto the paper's generic gate library — every
// structural gate type (AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF, plus MAJ when
// k >= 3) at fanin at most k: sweep -> strash -> fanin reduction -> sweep ->
// strash, with built-in equivalence verification. This is the repo's
// stand-in for "optimized in SIS using script.rugged and mapped using a
// generic library comprised of gates with a maximum fanin of three"
// (paper, Section 6).
#pragma once

#include "netlist/circuit.hpp"
#include "netlist/stats.hpp"

namespace enb::synth {

struct MapResult {
  netlist::Circuit circuit;
  netlist::CircuitStats before;
  netlist::CircuitStats after;
  bool verified_exact = false;  // the equivalence check was exhaustive
};

// Maps `circuit` to gates of fanin at most `max_fanin`, then verifies the
// result against the original: exhaustively up to 14 inputs, otherwise on
// 512 random 64-pattern words. Throws std::invalid_argument when
// max_fanin < 2 (reduce_fanin's check), and std::runtime_error if
// verification fails (a mapper bug — the mapped netlist must be
// functionally identical).
[[nodiscard]] MapResult map_to_library(const netlist::Circuit& circuit,
                                       int max_fanin);

}  // namespace enb::synth
