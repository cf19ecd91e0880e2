// The mapping pipeline onto the paper's generic gate library — every
// structural gate type (AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF, plus MAJ when
// k >= 3) at fanin at most k: sweep -> strash -> fanin reduction -> sweep ->
// strash, then check_mapping, which proves the result by structural hashing
// and simulates it only when the proof leaves an output open. This is the
// repo's stand-in for "optimized in SIS using script.rugged and mapped using
// a generic library comprised of gates with a maximum fanin of three"
// (paper, Section 6).
#pragma once

#include <cstddef>

#include "netlist/circuit.hpp"
#include "netlist/stats.hpp"

namespace enb::synth {

struct MapResult {
  netlist::Circuit circuit;
  netlist::CircuitStats before;
  netlist::CircuitStats after;
  // At most 14 inputs: the check was exact, proved or exhaustive. Wider
  // circuits are exact only when outputs_proved covers every output.
  bool verified_exact = false;
  // Outputs check_mapping proved by structural hashing.
  std::size_t outputs_proved = 0;
};

// Checks that `mapped` computes the function of `original`, inputs and
// outputs matched by position. An output whose two cones get the same id in
// one StructuralHasher (plain: no constant folding, no BDD) is proved. If
// any output stays open, both circuits are simulated: exhaustively up to 14
// inputs, else on 512 random 64-pattern words at a fixed seed. Returns the
// number of outputs proved. Throws std::runtime_error when the interfaces
// differ or simulation finds a difference.
[[nodiscard]] std::size_t check_mapping(const netlist::Circuit& original,
                                        const netlist::Circuit& mapped);

// Maps `circuit` to gates of fanin at most `max_fanin`, then checks the
// result against the original with check_mapping. Throws
// std::invalid_argument when max_fanin < 2 (reduce_fanin's check), and
// std::runtime_error if the check fails (a mapper bug — the mapped netlist
// must be functionally identical). Records a "map-to-library" trace span
// with a "map-check" child whose detail counts proved and open outputs.
[[nodiscard]] MapResult map_to_library(const netlist::Circuit& circuit,
                                       int max_fanin);

}  // namespace enb::synth
