// Derived candidate profiles: a hardened variant's fault-free behaviour is
// already known from its base, so a sweep need not simulate it again.
//
// The transforms are append-only rebuilds (harden/transform.hpp), so every
// fault-free node of a variant computes the function of some base node, or
// the constant 0. A node's origin is the first base node that
// synth::StructuralHasher proves computes the same function: replicas
// land on their base gate, voters and their two-input netlists on the
// voted node, and DWC comparators and their OR on constant 0.
//
// Copying the base's per-node activity through these origins and averaging
// it in variant node order reproduces the variant's own extraction bit for
// bit: the input count, input order, seed and shard plan are unchanged, so
// every Monte-Carlo lane matches its origin's lane, and equal functions have
// equal truth tables, so exhaustive one-counts match too. The activity route
// (exhaustive or Monte-Carlo) depends only on the input count, which is
// unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/profile.hpp"
#include "harden/transform.hpp"
#include "netlist/circuit.hpp"
#include "synth/structural_hasher.hpp"

namespace enb::harden {

// The origin of every node that is constant 0 fault-free, constant-0 nodes
// of the base included.
inline constexpr netlist::NodeId kZeroOrigin = netlist::kInvalidNode - 1;

// The structural hash of a base circuit that node_origins looks variants up
// in: built once per sweep and shared, read-only, by every candidate.
class BaseIndex {
 public:
  explicit BaseIndex(const netlist::Circuit& base);

  [[nodiscard]] std::size_t num_inputs() const noexcept { return num_inputs_; }
  // The hasher with the base hashed into it.
  [[nodiscard]] const synth::StructuralHasher& hasher() const noexcept {
    return hasher_;
  }
  // The first base node of hasher class `value`, or netlist::kInvalidNode
  // when no base node computes it.
  [[nodiscard]] netlist::NodeId first_node(std::uint32_t value) const noexcept;

 private:
  std::size_t num_inputs_;
  synth::StructuralHasher hasher_;
  std::vector<netlist::NodeId> first_node_;  // indexed by class id
};

// Per variant node, the base node whose function it computes fault-free, or
// kZeroOrigin. nullopt when some node's class has no base node, or the
// input counts differ.
[[nodiscard]] std::optional<std::vector<netlist::NodeId>> node_origins(
    const BaseIndex& base, const netlist::Circuit& variant);

// The variant's profile derived from `base_profile`, the base's extraction
// under the options the variant's profile is wanted for. Activity is copied
// through node_origins; size, depth and fanin come from the variant's own
// stats; sensitivity is inherited, which needs two facts: the variant's
// first base_outputs ports are proved equivalent to the base (the caller's
// precondition — verify_hardened), and its check outputs are constant 0
// (checked here). nullopt when a node has no origin or a check output is
// not constant 0: the caller then extracts the variant's profile itself.
[[nodiscard]] std::optional<core::ProfileExtraction> derive_profile(
    const BaseIndex& base, const core::ProfileExtraction& base_profile,
    const HardenedCircuit& variant);

}  // namespace enb::harden
