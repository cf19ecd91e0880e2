// Combinational cleanup: constant propagation, algebraic identity rules,
// duplicate-operand reduction, buffer/double-inverter collapsing, and dead
// logic removal. The stand-in for SIS script.rugged's cleanup steps.
#pragma once

#include "netlist/circuit.hpp"

namespace enb::synth {

// Returns a functionally equivalent circuit with the rules applied:
//   * gates whose operands are constants fold (AND with a 0, OR with a 1...)
//   * neutral operands drop (AND with 1, XOR with 0, ...)
//   * duplicate operands reduce (AND(x,x) == x, XOR(x,x) == 0, MAJ(x,x,y)==x)
//   * single-operand associative gates collapse (AND(x) == BUF(x))
//   * BUF chains and NOT(NOT(x)) collapse
//   * logic not reachable from any primary output is deleted
// Passes repeat until one changes nothing, at most 8 of them.
[[nodiscard]] netlist::Circuit sweep(const netlist::Circuit& circuit);

}  // namespace enb::synth
