// Derived candidate profiles: a hardened variant's fault-free behaviour is
// already known from its base, so a sweep need not simulate it again.
//
// The transforms are append-only rebuilds (harden/transform.hpp), so every
// fault-free node of a variant computes the function of some base node, or
// the constant 0:
//   - inputs map by position, a constant 1 to the base's, a constant 0 to 0;
//   - a replica gate whose (type, fanin origins) matches a base gate is that
//     gate, found through one structural hash of the base (which resolves
//     the base's own nodes by these same rules, so structurally duplicated
//     base gates share one canonical origin);
//   - a voter MAJ / AND / OR whose fanins all share one origin x is x (this
//     covers both ft::VoterStyle netlists);
//   - a DWC comparator XOR(x, x) is 0, and so is an OR of zeros (dwc_check).
//
// Copying the base's per-node activity through these origins and averaging
// it in variant node order reproduces the variant's own extraction bit for
// bit: the input count, input order, seed and shard plan are unchanged, so
// every Monte-Carlo lane matches its origin's lane, and equal functions have
// equal BDDs, so exact probabilities match too. The activity route (BDD or
// Monte-Carlo) depends only on the input count, which is unchanged.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/profile.hpp"
#include "harden/transform.hpp"
#include "netlist/circuit.hpp"

namespace enb::harden {

// The origin of every node that is constant 0 fault-free, constant-0 nodes
// of the base included.
inline constexpr netlist::NodeId kZeroOrigin = netlist::kInvalidNode - 1;

// The structural hash of a base circuit that node_origins looks gates up
// in: built once per sweep and shared by every candidate. Holds a reference
// to `base`, which must outlive the index.
class BaseIndex {
 public:
  explicit BaseIndex(const netlist::Circuit& base);

  [[nodiscard]] const netlist::Circuit& base() const noexcept {
    return *base_;
  }
  // The origin of a node of `type` (a gate or a constant) whose fanins have
  // origins `fanins`: the canonical base node with that structure, else the
  // rules' collapse (x, or kZeroOrigin), else netlist::kInvalidNode.
  [[nodiscard]] netlist::NodeId origin(
      netlist::GateType type, std::vector<netlist::NodeId> fanins) const;

 private:
  const netlist::Circuit* base_;
  // (type, canonical fanins, sorted for commutative types) -> the first
  // base node with that structure.
  std::map<std::pair<netlist::GateType, std::vector<netlist::NodeId>>,
           netlist::NodeId>
      nodes_;
};

// Per variant node, the base node whose function it computes fault-free, or
// kZeroOrigin. nullopt when some node matches none of the rules above, or
// the input counts differ.
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
