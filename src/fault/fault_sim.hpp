// Stuck-at fault simulation substrates.
//
// Two implementations of the same question — "which faults does this input
// pattern detect?" — with opposite packings:
//
//   PatternFaultSim   packs one *pattern* per bit of a block of up to 8
//                     64-bit words (sim::Block) and answers the question
//                     for up to 512 patterns at once, one fault class at a
//                     time, in the style of pattern-parallel single-fault
//                     propagation. Per block it simulates the good machine
//                     once, then computes in one backward pass each node's
//                     observability to the stem of its fanout-free region
//                     (FFR): a node is a *stem* when its fanout count (with
//                     multiplicity) is not 1 or it is a primary output; any
//                     other node's one consumer is sensitized to it on the
//                     patterns where forcing the node to 1 and to 0 gives
//                     different gate values, and its observability is that
//                     sensitivity ANDed with the consumer's own. A fault
//                     then *reaches* its stem exactly on
//                         reach = (good ^ stuck) & obs & valid,
//                     because inside an FFR the effect has a single path
//                     whose side inputs the fault cannot touch. Everything
//                     past the stem is the circuit with the stem flipped,
//                     so each stem some active fault reaches is flipped
//                     once per block on sim::BlockSim (the event-driven
//                     flip, sim/block_sim.hpp), which records the stem's
//                     decoded per-output difference blocks against
//                     `expected`. A class is then O(1) in the block:
//                         det = (reach & stem_det) | (~reach & base_mismatch)
//                     where base_mismatch is where the good machine itself
//                     differs from `expected` (a non-equivalent golden).
//                     Each call runs at the narrowest of 1, 2, 4 or 8
//                     words that holds its patterns. The simulated set
//                     is an explicit *active list* of class indices, fixed
//                     at construction, which sampled and pruned campaigns
//                     shrink; it is held grouped by stem, and a call may
//                     grade any ascending subset of its positions, which
//                     is how a campaign slices it by class and retires a
//                     class after its first detecting block (slice_cuts
//                     names cuts that never split a stem's group). The
//                     simulator is immutable once built: detect_block is
//                     const and keeps its scratch in the call, so a
//                     campaign builds one and shares it read-only with
//                     every task.
//
//   ScalarFaultSim    injects one fault at a time and evaluates one pattern
//                     gate by gate, in a full sweep of its own over the
//                     Circuit, on words that are 0 or all-ones. It shares
//                     only the gate rule, netlist::eval_gate, with the
//                     pattern-parallel path: no fanout inverse, no FFRs,
//                     no stems, no event queue. It is the oracle: tests and
//                     the CLI's --check-scalar diff the two bit for bit, on
//                     gates of any fanin count.
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
// itself). Pass accounting lives in the campaign layer (campaign.hpp),
// which keeps it in normalized 64-class sweeps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_model.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/bitpack.hpp"

namespace enb::fault {

class PatternFaultSim {
 public:
  // The lowest detecting pattern of one segment of a block, and the lowest
  // logical output whose decoded value differs from expected on it.
  struct FirstHit {
    std::uint32_t pattern = 0;  // block-local pattern index
    std::uint32_t output = kNoOutput;

    friend bool operator==(const FirstHit&, const FirstHit&) = default;
  };
  // One detected class of a block, at `position` of the active list: bit p
  // of `patterns` is set iff pattern p detects it. first_begin..first_end
  // is its range of the block's first_hits: its FirstHit per segment that
  // holds a detecting pattern, in pattern order.
  struct Detection {
    std::uint32_t cls = 0;
    std::uint32_t position = 0;
    sim::Block<sim::kBlockWords> patterns;
    std::uint32_t first_begin = 0;
    std::uint32_t first_end = 0;

    friend bool operator==(const Detection&, const Detection&) = default;
  };
  // Everything one detect_block call found; detections in ascending
  // position order.
  struct BlockResult {
    std::vector<Detection> detections;
    std::vector<FirstHit> first_hits;
    // Block evaluations spent propagating flipped stems (the good machine
    // and the backward pass excluded).
    std::uint64_t events = 0;

    [[nodiscard]] std::span<const FirstHit> first_hits_of(
        const Detection& hit) const noexcept {
      return std::span<const FirstHit>(first_hits)
          .subspan(hit.first_begin, hit.first_end - hit.first_begin);
    }
    friend bool operator==(const BlockResult&, const BlockResult&) = default;
  };

  // Grades the `active` universe class indices (any order). Throws
  // std::invalid_argument on an out-of-range index, or when the interface
  // is not bundle-divisible or bundle_width is not 1 or odd >= 3.
  // `circuit` must outlive the simulator.
  PatternFaultSim(const netlist::Circuit& circuit,
                  const FaultUniverse& universe, int bundle_width,
                  std::span<const std::uint32_t> active);

  // Simulates `count` patterns (1..512) at once, in sim::words_for(count)
  // words: inputs[k * L + i] holds logical input i of patterns 64k..64k+63,
  // bit p for pattern 64k + p, where L is the logical input count; bits at
  // and above `count` are ignored. expected[k * O + o] holds the reference
  // value of logical output o the same way (O logical outputs), or
  // `expected` is empty to compare against the circuit's own fault-free
  // outputs. The block splits into consecutive segments of `segment`
  // patterns (the last may be short; a campaign's shards), and each
  // Detection records the first hit of every segment it is detected in.
  // Returns the active classes that at least one of the patterns detects.
  // Const and self-contained: any number of threads may call it at once.
  // Throws std::invalid_argument when count is outside 1..512, segment < 1,
  // or a span has the wrong size.
  [[nodiscard]] BlockResult detect_block(
      std::span<const sim::Word> inputs, int count,
      std::span<const sim::Word> expected,
      int segment = sim::kBlockPatterns) const;
  // The same, grading only the active list's `positions` (strictly
  // ascending, each below num_active()); throws std::invalid_argument
  // otherwise. Each class's bits are the same as in the full call.
  [[nodiscard]] BlockResult detect_block(
      std::span<const sim::Word> inputs, int count,
      std::span<const sim::Word> expected, int segment,
      std::span<const std::uint32_t> positions) const;

  // `slices` + 1 ascending positions of the active list, from 0 to
  // num_active(), each at the start of a stem's group: slice k is
  // [cuts[k], cuts[k + 1]), about num_active() / slices classes, and no
  // stem has classes in two slices. A slice is empty when a stem's group
  // spans its share. Throws std::invalid_argument when slices is 0.
  [[nodiscard]] std::vector<std::size_t> slice_cuts(std::size_t slices) const;

  [[nodiscard]] std::size_t num_active() const noexcept {
    return active_.size();
  }

 private:
  struct ActiveSite {
    netlist::NodeId stem;
    netlist::NodeId node;
    bool stuck_one;
    std::uint32_t cls;
  };
  // One call's per-node and per-output blocks at one width (fault_sim.cpp).
  template <int W>
  struct Scratch;

  template <int W>
  void detect(std::span<const sim::Word> inputs, int count,
              std::span<const sim::Word> expected, int segment,
              std::span<const std::uint32_t> positions,
              BlockResult& result) const;
  // Decoded value of logical output `o` in `s.sim`.
  template <int W>
  [[nodiscard]] sim::Block<W> decode_output(Scratch<W>& s,
                                            std::size_t o) const;

  const netlist::Circuit* circuit_;
  netlist::Fanouts fanouts_;
  std::span<const netlist::NodeId> outputs_;
  int bundle_width_;
  std::size_t logical_inputs_ = 0;
  std::size_t logical_outputs_ = 0;
  std::vector<netlist::NodeId> stem_of_;  // per node: its FFR's stem
  std::vector<ActiveSite> active_;        // grouped by stem
};

class ScalarFaultSim {
 public:
  ScalarFaultSim(const netlist::Circuit& circuit,
                 const FaultUniverse& universe, int bundle_width = 1);

  // True iff class `class_index`'s representative fault is detected on
  // `pattern` (one bool per logical input; `expected` one bool per logical
  // output). One simulation pass.
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
