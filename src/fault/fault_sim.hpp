// Stuck-at fault simulation substrates.
//
// Two implementations of the same question — "which faults does this input
// pattern detect?" — with opposite packings:
//
//   LaneFaultSim<V>   packs one *fault* per lane of the lane container V
//                     (sim::Word = 64 lanes, LaneVec128/256/512 = wider, see
//                     lanes.hpp) and evaluates one pattern under every fault
//                     of a block simultaneously. It simulates the good
//                     machine once per pattern; each block then re-evaluates
//                     only the injected sites and the fanouts of nodes whose
//                     lanes differ from the good machine (event-driven, on
//                     the fanout CSR of netlist::FlatCircuit), so a fault's
//                     work ends where its effect dies out. The simulated
//                     set is an explicit *active list* of class indices
//                     (default: the whole universe), which is what fault
//                     dropping and sampled campaigns repack between
//                     patterns — retiring detected classes keeps the
//                     surviving lanes dense, so late patterns sweep only
//                     undetected faults.
//
//   ScalarFaultSim    injects one fault at a time and evaluates the pattern
//                     gate by gate, in a full sweep of its own over the
//                     Circuit, on words that are 0 or all-ones. It shares
//                     only the gate rule, netlist::eval_gate, with the
//                     lane-parallel path: no FlatCircuit, no good-machine
//                     reuse, no event queue. It exists only to cross-check
//                     that path (tests and the CLI's --check-scalar diff the
//                     two bit for bit, for every lane width), on gates of
//                     any fanin count.
//
// FaultParallelSim is the 64-lane instantiation — the historical name and
// the cross-check baseline.
//
// Both simulate the *collapsed* universe (one representative per
// equivalence class — exact for every member, see fault_model.hpp) and
// support the ft/ bundle convention: with bundle_width b > 1 the circuit's
// inputs/outputs are consecutive b-wire bundles per logical signal (the
// ft/multiplex layout); inputs are broadcast per bundle and outputs are
// majority-decoded before comparison, so a fault is "detected" only when it
// survives redundancy decoding.
//
// A fault is detected on a pattern when any decoded output differs from
// `expected` — the golden circuit's fault-free outputs for that pattern
// (the campaign layer supplies them; golden defaults to the circuit
// itself). passes() is the currency of the pass-reduction contract and is
// *normalized to 64-lane sweeps*: a block with A active lanes costs
// ceil(A/64) regardless of the physical vector width (and of how few nodes
// the block re-evaluated), so pass counts — and therefore whole campaign
// results — are lane-width independent. events() counts the node
// evaluations the blocks actually performed; it is observational only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_model.hpp"
#include "fault/lanes.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"

namespace enb::fault {

template <typename V>
class LaneFaultSim {
 public:
  static constexpr int kLanesPerBlock = kLaneBits<V>;

  // Throws std::invalid_argument when the interface is not bundle-divisible
  // or bundle_width is not 1 or odd >= 3. Starts with every class active.
  LaneFaultSim(const netlist::Circuit& circuit, const FaultUniverse& universe,
               int bundle_width = 1);

  // Replaces the active list: `classes` are universe class indices, packed
  // into lanes in the given order (lane L of block b is classes[b * W + L]).
  // Throws std::invalid_argument on an out-of-range index.
  void set_active(std::vector<std::uint32_t> classes);
  [[nodiscard]] std::span<const std::uint32_t> active() const noexcept {
    return active_;
  }

  // Active classes are processed in blocks of kLanesPerBlock lanes.
  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return (active_.size() + static_cast<std::size_t>(kLanesPerBlock) - 1) /
           static_cast<std::size_t>(kLanesPerBlock);
  }
  // Valid-lane mask of `block` (all lanes except a short final block).
  [[nodiscard]] V block_mask(std::size_t block) const;

  // Detection lanes for `block` on one pattern: lane L is set iff the
  // class in that lane is detected, i.e. some majority-decoded output under
  // that fault differs from expected. `pattern` holds one bool per
  // *logical* input, `expected` one bool per *logical* output. The good
  // machine is re-simulated only when `pattern` differs from the previous
  // call's, so callers should run every block of a pattern back to back.
  [[nodiscard]] V detect_block(std::size_t block,
                               const std::vector<bool>& pattern,
                               const std::vector<bool>& expected);

  // For each lane set in `lanes`, the lowest logical output index whose
  // decoded value differs from expected (kNoOutput for unset lanes) — the
  // detectability map's "which output first sees this fault". Must be
  // called directly after detect_block(block, ...) on the same pattern: it
  // re-decodes the node values of that sweep.
  void first_outputs(std::size_t block, V lanes,
                     const std::vector<bool>& expected,
                     std::vector<std::uint32_t>& out);

  // Normalized 64-lane-equivalent sweeps performed so far.
  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  // Node evaluations performed by detect_block so far (good-machine sweeps
  // excluded).
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  // Decoded value of logical output `o` for every lane of the last sweep.
  [[nodiscard]] V decode_output(std::size_t o);
  // Sweeps the fault-free circuit on `pattern` into every node's lanes.
  void simulate_good(const std::vector<bool>& pattern);

  const netlist::Circuit* circuit_;
  netlist::FlatCircuit flat_;
  const FaultUniverse* universe_;
  int bundle_width_;
  std::vector<std::uint32_t> active_;  // lane order: class of block*W + L
  // Per node: the good machine broadcast to every lane, except the nodes in
  // touched_, which hold the last block's faulty lanes until the next
  // detect_block restores them (so first_outputs can re-decode that block).
  std::vector<V> values_;
  std::vector<sim::Word> good_;  // bitset over node ids: the good value is 1
  std::vector<netlist::NodeId> touched_;
  std::vector<sim::Word> pending_;  // bitset over node ids still to evaluate
  std::vector<bool> pattern_;  // the good machine's pattern (empty: none)
  std::vector<V> force0_;  // per node: lanes forced to 0 this block
  std::vector<V> force1_;  // per node: lanes forced to 1 this block
  VecLaneCounter<V> bundle_counter_;  // reused across detect_block calls
  std::uint64_t passes_ = 0;
  std::uint64_t events_ = 0;
};

// The 64-fault-per-word instantiation: the historical engine name, and the
// width every other LaneWidth is required to be bit-identical to.
using FaultParallelSim = LaneFaultSim<sim::Word>;

extern template class LaneFaultSim<sim::Word>;
extern template class LaneFaultSim<LaneVec128>;
extern template class LaneFaultSim<LaneVec256>;
extern template class LaneFaultSim<LaneVec512>;

class ScalarFaultSim {
 public:
  ScalarFaultSim(const netlist::Circuit& circuit,
                 const FaultUniverse& universe, int bundle_width = 1);

  // True iff class `class_index`'s representative fault is detected on
  // `pattern` (same logical-interface conventions as LaneFaultSim).
  // One simulation pass.
  [[nodiscard]] bool detect(std::size_t class_index,
                            const std::vector<bool>& pattern,
                            const std::vector<bool>& expected);

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }

 private:
  const netlist::Circuit* circuit_;
  const FaultUniverse* universe_;
  int bundle_width_;
  std::vector<sim::Word> values_;
  std::uint64_t passes_ = 0;
};

// Shared interface validation: bundle_width is 1 or odd >= 3, the circuit's
// input/output counts are multiples of it, and there is at least one output.
void validate_bundle_interface(const netlist::Circuit& circuit,
                               int bundle_width);

}  // namespace enb::fault
