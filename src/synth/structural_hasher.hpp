// Functional-flavored structural hashing. Every cone maps to a canonical
// value id; NAND/NOR/XNOR normalize to NOT(AND/OR/XOR), fanins sort and
// dedupe, constants fold, BUF(x) = x, NOT(NOT(x)) = x, XOR cancels equal
// pairs, and MAJ(r, r, x) = r. Two cones with equal ids compute the same
// function; hashing two circuits into one hasher makes the ids comparable
// across circuits. The mapper proves each library mapping this way
// (synth::check_mapping), and analysis/static_reason's CEC discharges
// TMR'd / strash-rewritten variants with it without touching a BDD.
//
// The hasher only checks: synth::strash builds netlists by its own rules,
// and its output does not depend on this class.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/circuit.hpp"

namespace enb::synth {

// Three-valued lattice for per-net facts.
enum class LogicValue : std::uint8_t { kUnknown = 0, kZero = 1, kOne = 2 };

[[nodiscard]] constexpr LogicValue to_logic(bool value) noexcept {
  return value ? LogicValue::kOne : LogicValue::kZero;
}
[[nodiscard]] constexpr LogicValue negate(LogicValue value) noexcept {
  if (value == LogicValue::kZero) return LogicValue::kOne;
  if (value == LogicValue::kOne) return LogicValue::kZero;
  return LogicValue::kUnknown;
}

// Canonical value ids: 0 = const0, 1 = const1, 2 + i = primary input i,
// then interned gate classes. Input ids are positional, so hashing two
// circuits with the same input count into one hasher yields directly
// comparable ids.
class StructuralHasher {
 public:
  explicit StructuralHasher(std::size_t num_inputs);

  // Canonical id per node of `circuit` (indexed by NodeId). When
  // `constants` is non-null, nets proved constant fold to the constant ids
  // regardless of their structure. Throws std::invalid_argument when the
  // circuit has more inputs than the hasher was sized for.
  std::vector<std::uint32_t> hash_circuit(
      const netlist::Circuit& circuit,
      const std::vector<LogicValue>* constants = nullptr);

  [[nodiscard]] static constexpr std::uint32_t const_id(bool value) noexcept {
    return value ? 1u : 0u;
  }
  [[nodiscard]] std::uint32_t input_id(std::size_t position) const;

  // Total distinct values interned so far (constants + inputs + classes).
  [[nodiscard]] std::size_t num_values() const noexcept { return next_id_; }

 private:
  struct Key {
    std::uint8_t op;  // static_cast<uint8_t>(GateType): kAnd/kOr/kXor/kMaj
    std::vector<std::uint32_t> args;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  std::uint32_t intern(netlist::GateType op, std::vector<std::uint32_t> args);
  std::uint32_t make_not(std::uint32_t arg);
  std::uint32_t make_and_or(netlist::GateType op,
                            std::vector<std::uint32_t> args);
  std::uint32_t make_xor(std::vector<std::uint32_t> args);
  std::uint32_t make_maj(std::uint32_t a, std::uint32_t b, std::uint32_t c);
  [[nodiscard]] bool complements(std::uint32_t a, std::uint32_t b) const;

  std::size_t num_inputs_;
  std::uint32_t next_id_;
  std::unordered_map<Key, std::uint32_t, KeyHash> classes_;
  std::unordered_map<std::uint32_t, std::uint32_t> not_cache_;
  // not_arg_[id] = x when id was interned as NOT(x); kNoNot otherwise.
  std::vector<std::uint32_t> not_arg_;
};

}  // namespace enb::synth
