// Static reasoning over the netlist IR: constant propagation, FIRE-style
// implication learning, structural hashing, and combinational equivalence
// checking. This layer proves facts about a circuit without simulating a
// single pattern — it is the semantic counterpart to the syntactic linter
// and the correctness oracle the `harden` optimizer calls on every
// candidate rewrite.
//
// Three provers; two live here, the structural hasher in synth/:
//
//   analyze_constants  — a two-tier constant prover. Tier one is plain
//       forward propagation from constant gates (a gate whose output is
//       forced by already-proved-constant fanins is itself constant); its
//       proofs survive any single stuck-at fault on a net that is not
//       itself proved constant, which is what makes them usable for
//       untestability arguments (see fault/untestable.hpp);
//       forward_constants computes it alone. Tier two adds
//       backward implications and probing: assume net = 0 and net = 1 in
//       turn, push direct implications (forward gate evaluation with
//       partial values plus backward controlling-value rules) to a
//       fixpoint, and learn a constant whenever one branch contradicts
//       itself or both branches agree on some other net. Tier-two facts
//       hold for the fault-free circuit only. Both branches run on one
//       shared value array and are undone from a trail of the nodes they
//       assigned, so a probe costs the size of its implication, not the
//       node count (a probe whose implication spans the circuit, as on a
//       NOT chain, still costs O(n)).
//
//   StructuralHasher   — canonical value ids per cone. It lives in
//       synth/structural_hasher.hpp, next to strash, because the mapper
//       proves every library mapping with it (synth::check_mapping); the
//       three-valued LogicValue lattice its constant folding reads lives
//       there too. CEC's stage two uses it from there.
//
//   check_equivalence  — three-stage CEC: (1) 64-bit random-simulation
//       signatures refute inequivalent output pairs almost instantly and
//       name the first differing output; (2) surviving pairs are
//       discharged structurally via a shared StructuralHasher, plain
//       first, and only if some pair is still open again in a fresh
//       hasher with both circuits' proved constants folded in; (3) the
//       remainder goes to the bdd/ engine (one shared manager, inputs
//       mapped positionally), where Ref equality is exact functional
//       equivalence. A BDD node-budget blowout is reported as
//       `inconclusive`, never as a verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"
#include "synth/structural_hasher.hpp"

namespace enb::analysis {

struct ConstantFacts {
  // Tier one: constants provable by forward propagation from constant
  // gates alone. The derivation of every entry is supported entirely by
  // other proved-constant nets, so these values still hold in any faulty
  // circuit whose stuck-at site is a net *outside* this set — the property
  // the untestability prover depends on.
  std::vector<synth::LogicValue> forward;
  // Tier two: the full implication/probing fixpoint (a superset of
  // `forward`). Sound for the fault-free circuit only; lint, strash and
  // CEC material.
  std::vector<synth::LogicValue> proved;
  std::size_t probes = 0;          // (net, value) probes performed
  std::size_t learned = 0;         // constants proved beyond `forward`
  std::size_t probe_rounds = 0;    // sweeps until fixpoint (or the cap)
};

// Tier one alone: `ConstantFacts::forward`, without any probing.
[[nodiscard]] std::vector<synth::LogicValue> forward_constants(
    const netlist::Circuit& circuit);

// Both tiers. Probe-learning sweeps over all nets, each sweep a full
// implication fixpoint per (net, value) pair, until nothing new is learned
// or three sweeps have run: the cap bounds pathological circuits; real
// netlists converge in one or two rounds. Facts agreed by both branches of
// one probe are learned in ascending node order. Records a
// "static-constants" trace span.
[[nodiscard]] ConstantFacts analyze_constants(const netlist::Circuit& circuit);

struct CecOptions {
  std::uint64_t seed = 0xCEC5;
  // 64 random patterns per signature word.
  int signature_words = 8;
  // Node budget for the BDD fallback stage; exhaustion is `inconclusive`.
  std::size_t bdd_node_limit = std::size_t{1} << 22;

  friend bool operator==(const CecOptions&, const CecOptions&) = default;
};

struct CecResult {
  bool equivalent = false;
  // True when the BDD stage ran out of nodes before reaching a verdict on
  // some output pair; `equivalent` is false but nothing was refuted.
  bool inconclusive = false;
  std::uint64_t outputs = 0;
  std::uint64_t refuted = 0;            // output pairs refuted (sim or BDD)
  // Discharged by StructuralHasher: plain hashing, then (for pairs still
  // open) hashing with proved constants folded in.
  std::uint64_t proved_structural = 0;
  std::uint64_t proved_bdd = 0;         // discharged by the bdd/ engine
  std::uint64_t signature_words = 0;
  // Name (in circuit `a`) of the first output pair proved different;
  // empty when nothing was refuted.
  std::string first_mismatch_output;

  friend bool operator==(const CecResult&, const CecResult&) = default;
};

// Combinational equivalence of `a` and `b` under positional input/output
// mapping. Throws std::invalid_argument when the interfaces disagree
// (input or output counts differ) — the circuits are not even comparable.
[[nodiscard]] CecResult check_equivalence(const netlist::Circuit& a,
                                          const netlist::Circuit& b,
                                          const CecOptions& options = {});

}  // namespace enb::analysis
