// What every sweep over a Circuit's flat layout shares: the fanout
// inverse and the one gate rule.
//
// Circuit stores gate types, CSR fanins and input slots itself (see
// circuit.hpp). Fanouts is the one structure derived from it: the exact
// inverse of Circuit::fanins in CSR form, built in one O(n) pass by the
// engines that walk forward from a node (sim::BlockSim's flips for fault
// and sensitivity sweeps, the implication engine, the untestability
// prover). Node ids are the Circuit's, so id order is a topological order,
// and a fanout always has a larger id than its driver.
//
// eval_gate<V> is the bit-parallel gate rule: V is sim::Word (or any type
// with the bitwise operators), and every bit is an independent evaluation.
// sim::sweep (the good machine) and BlockSim's flips call it, and so does
// the scalar fault reference, an oracle with its own loop over words that
// are 0 or all-ones. netlist::eval_word checks arity and delegates to it.
// It switches on the gate type directly instead of reading the
// operator-plus-inversion table in gate_type.hpp, because it is the inner
// loop of every sweep; the gate-type tests check the two agree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/gate_type.hpp"

namespace enb::netlist {

class Fanouts {
 public:
  explicit Fanouts(const Circuit& circuit);

  // Consumers of `id` in ascending id order; a node that reads `id` k times
  // is listed k times, so this is the exact inverse of Circuit::fanins.
  [[nodiscard]] std::span<const NodeId> of(NodeId id) const noexcept {
    return {ids_.data() + begin_[id], ids_.data() + begin_[id + 1]};
  }

 private:
  std::vector<std::uint32_t> begin_;  // node_count() + 1 offsets
  std::vector<NodeId> ids_;
};

// Value of a `type` gate whose fanins are `values[f]` for f in `fanins`.
// Arity is the caller's contract (Circuit enforces it on construction).
// Primary inputs have no rule: sweeps read them from their input slot.
template <typename V, typename Fanins>
[[nodiscard]] inline V eval_gate(GateType type, std::span<const V> values,
                                 const Fanins& fanins) noexcept {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
      return V{};
    case GateType::kConst1:
      return ~V{};
    case GateType::kBuf:
      return values[fanins[0]];
    case GateType::kNot:
      return ~values[fanins[0]];
    case GateType::kAnd:
    case GateType::kNand: {
      V acc = ~V{};
      for (const auto f : fanins) acc &= values[f];
      return type == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      V acc = V{};
      for (const auto f : fanins) acc |= values[f];
      return type == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      V acc = V{};
      for (const auto f : fanins) acc ^= values[f];
      return type == GateType::kXor ? acc : ~acc;
    }
    case GateType::kMaj: {
      const V a = values[fanins[0]];
      const V b = values[fanins[1]];
      const V c = values[fanins[2]];
      return (a & b) | (a & c) | (b & c);
    }
  }
  return V{};
}

}  // namespace enb::netlist
