// Gate vocabulary for the netlist IR.
//
// The paper models circuits built from k-input gates; this enum covers the
// usual structural-netlist vocabulary (ISCAS .bench compatible) plus MAJ,
// which the fault-tolerance transforms use for voters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

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

[[nodiscard]] ArityRange arity_range(GateType type) noexcept;

// True for kInput.
[[nodiscard]] constexpr bool is_input(GateType type) noexcept {
  return type == GateType::kInput;
}

// True for kConst0 / kConst1.
[[nodiscard]] constexpr bool is_constant(GateType type) noexcept {
  return type == GateType::kConst0 || type == GateType::kConst1;
}

// True for the types that count as switching devices: everything except
// primary inputs and constants. This is the gate count S0 used by the
// energy bounds (buffers and inverters are devices too).
[[nodiscard]] constexpr bool counts_as_gate(GateType type) noexcept {
  return !is_input(type) && !is_constant(type);
}

// True when fanin order is irrelevant (used by structural hashing).
[[nodiscard]] constexpr bool is_commutative(GateType type) noexcept {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
    case GateType::kMaj:
      return true;
    default:
      return false;
  }
}

// Canonical upper-case name, matching .bench usage (e.g. "NAND").
[[nodiscard]] std::string_view to_string(GateType type) noexcept;

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

// Single-bit convenience wrapper over eval_word. Takes a vector (not a span)
// because std::vector<bool> is bit-packed and cannot view as a span.
[[nodiscard]] bool eval_bit(GateType type, const std::vector<bool>& inputs);

}  // namespace enb::netlist
