// Gate vocabulary for the netlist IR, and the gate algebra every engine
// reads.
//
// The paper models circuits built from k-input gates; this enum covers the
// usual structural-netlist vocabulary (ISCAS .bench compatible) plus MAJ,
// which the fault-tolerance transforms use for voters.
//
// Each type is an *operator* followed by an optional *output inversion*,
// stated once in the row table kGateRows: NAND is AND inverted, NOR is OR
// inverted, XNOR is XOR inverted, NOT is BUF inverted and CONST1 is CONST0
// inverted. AND and OR also have a *controlling value* (0 for AND, 1 for
// OR): one fanin at it decides the operator's result, whatever the other
// fanins carry. Engines that reason about gates (constant propagation and
// implication, structural hashing, BDD construction, sweeping, fanin
// reduction, fault collapsing, untestability) switch on the operator and
// then apply the inversion, so NAND/NOR/XNOR never need a rule of their own.
// gate_type_of is the inverse map, for engines that emit gates.
//
// netlist::eval_gate (flat.hpp) keeps its own per-type switch: it is the
// inner loop of every simulator, so it stays a single jump per node rather
// than an operator switch plus a conditional inversion. The gate-type tests
// check it against the algebra on every type and small arity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

namespace enb::netlist {

enum class GateType : std::uint8_t {
  kInput,   // primary input (no fanins)
  kConst0,  // constant 0 (no fanins)
  kConst1,  // constant 1 (no fanins)
  kBuf,     // identity, 1 fanin
  kNot,     // inversion, 1 fanin
  kAnd,     // conjunction, >= 1 fanins
  kNand,    // negated conjunction, >= 1 fanins
  kOr,      // disjunction, >= 1 fanins
  kNor,     // negated disjunction, >= 1 fanins
  kXor,     // parity, >= 1 fanins
  kXnor,    // negated parity, >= 1 fanins
  kMaj,     // majority-of-3, exactly 3 fanins
};

// Inclusive fanin-count range a gate type accepts.
struct ArityRange {
  int min = 0;
  int max = 0;
};

// The operator a gate type applies before its output inversion.
enum class GateOp : std::uint8_t {
  kInput,  // primary input: no operator, the value comes from outside
  kConst,  // constant 0
  kBuf,    // identity on its single fanin
  kAnd,    // conjunction, controlling value 0
  kOr,     // disjunction, controlling value 1
  kXor,    // parity
  kMaj,    // majority of 3
};

// One row of the gate table: a type's name, arity and algebra.
struct GateRow {
  GateType type;
  std::string_view name;  // canonical upper-case .bench name
  ArityRange arity;
  GateOp op;
  bool inverted;  // output = NOT(op(fanins))
};

inline constexpr int kUnboundedArity = std::numeric_limits<int>::max();

// Indexed by GateType.
inline constexpr GateRow kGateRows[] = {
    {GateType::kInput, "INPUT", {0, 0}, GateOp::kInput, false},
    {GateType::kConst0, "CONST0", {0, 0}, GateOp::kConst, false},
    {GateType::kConst1, "CONST1", {0, 0}, GateOp::kConst, true},
    {GateType::kBuf, "BUF", {1, 1}, GateOp::kBuf, false},
    {GateType::kNot, "NOT", {1, 1}, GateOp::kBuf, true},
    {GateType::kAnd, "AND", {1, kUnboundedArity}, GateOp::kAnd, false},
    {GateType::kNand, "NAND", {1, kUnboundedArity}, GateOp::kAnd, true},
    {GateType::kOr, "OR", {1, kUnboundedArity}, GateOp::kOr, false},
    {GateType::kNor, "NOR", {1, kUnboundedArity}, GateOp::kOr, true},
    {GateType::kXor, "XOR", {1, kUnboundedArity}, GateOp::kXor, false},
    {GateType::kXnor, "XNOR", {1, kUnboundedArity}, GateOp::kXor, true},
    {GateType::kMaj, "MAJ", {3, 3}, GateOp::kMaj, false},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kGateRows); ++i) {
        if (static_cast<std::size_t>(kGateRows[i].type) != i) return false;
      }
      return true;
    }(),
    "kGateRows is indexed by GateType");

[[nodiscard]] constexpr const GateRow& gate_row(GateType type) noexcept {
  return kGateRows[static_cast<std::size_t>(type)];
}

[[nodiscard]] constexpr ArityRange arity_range(GateType type) noexcept {
  return gate_row(type).arity;
}

// Canonical upper-case name, matching .bench usage (e.g. "NAND").
[[nodiscard]] constexpr std::string_view to_string(GateType type) noexcept {
  return gate_row(type).name;
}

[[nodiscard]] constexpr GateOp gate_op(GateType type) noexcept {
  return gate_row(type).op;
}

[[nodiscard]] constexpr bool is_inverted(GateType type) noexcept {
  return gate_row(type).inverted;
}

// The type that applies `op` and then inverts when `inverted`. Throws
// std::invalid_argument for a pair no type realizes (an inverted input or
// an inverted MAJ).
[[nodiscard]] constexpr GateType gate_type_of(GateOp op, bool inverted) {
  for (const GateRow& row : kGateRows) {
    if (row.op == op && row.inverted == inverted) return row.type;
  }
  throw std::invalid_argument("gate_type_of: no gate type for this operator");
}

// The fanin value that decides an AND (false) or an OR (true) by itself.
// Only AND and OR have one.
[[nodiscard]] constexpr bool controlling_value(GateOp op) noexcept {
  return op == GateOp::kOr;
}

// True for kInput.
[[nodiscard]] constexpr bool is_input(GateType type) noexcept {
  return type == GateType::kInput;
}

// True for kConst0 / kConst1.
[[nodiscard]] constexpr bool is_constant(GateType type) noexcept {
  return gate_op(type) == GateOp::kConst;
}

// True for the types that count as switching devices: everything except
// primary inputs and constants. This is the gate count S0 used by the
// energy bounds (buffers and inverters are devices too).
[[nodiscard]] constexpr bool counts_as_gate(GateType type) noexcept {
  return !is_input(type) && !is_constant(type);
}

// True when fanin order is irrelevant (used by structural hashing).
[[nodiscard]] constexpr bool is_commutative(GateType type) noexcept {
  const GateOp op = gate_op(type);
  return op == GateOp::kAnd || op == GateOp::kOr || op == GateOp::kXor ||
         op == GateOp::kMaj;
}

// Parses a gate name case-insensitively. Accepts the canonical names plus
// the .bench aliases BUFF (buffer) and INV (inverter). Returns nullopt for
// unknown names (e.g. DFF, which this combinational IR rejects upstream).
[[nodiscard]] std::optional<GateType> gate_type_from_string(
    std::string_view name) noexcept;

// Word-parallel evaluation: each of the 64 bit lanes is an independent
// evaluation. `inputs` holds one word per fanin; its size must respect
// arity_range(). kInput is not evaluable and must be handled by the caller.
// Checks both, then applies netlist::eval_gate (netlist/flat.hpp).
[[nodiscard]] std::uint64_t eval_word(GateType type,
                                      std::span<const std::uint64_t> inputs);

}  // namespace enb::netlist
