// Fanin reduction: the mapping step that bounds every gate's fanin to the
// generic library's k.
//
// reduce_fanin() splits gates wider than k into balanced trees of <= k-input
// gates of the same polarity (a NAND of 9 operands becomes AND subtrees
// feeding one top-level NAND, keeping a single inversion), and expands MAJ
// into ab + c(a|b) when k < 3. It implements the paper's "mapped using a
// generic library comprised of gates with a maximum fanin of three".
#pragma once

#include "netlist/circuit.hpp"

namespace enb::synth {

// Splits every gate with more than `max_fanin` operands into a balanced tree.
// Gate count grows, logic depth grows logarithmically; function is preserved.
// Throws std::invalid_argument when max_fanin < 2.
[[nodiscard]] netlist::Circuit reduce_fanin(const netlist::Circuit& circuit,
                                            int max_fanin);

}  // namespace enb::synth
