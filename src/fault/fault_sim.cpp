#include "fault/fault_sim.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "netlist/gate_type.hpp"
#include "sim/block_sim.hpp"

namespace enb::fault {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using sim::Word;

void validate_bundle_interface(const Circuit& circuit, int bundle_width) {
  if (bundle_width != 1 && (bundle_width < 3 || bundle_width % 2 == 0)) {
    throw std::invalid_argument(
        "fault: bundle_width must be 1 or odd and >= 3, got " +
        std::to_string(bundle_width));
  }
  const auto width = static_cast<std::size_t>(bundle_width);
  if (circuit.num_inputs() == 0 || circuit.num_inputs() % width != 0) {
    throw std::invalid_argument(
        "fault: circuit input count " + std::to_string(circuit.num_inputs()) +
        " is not a positive multiple of bundle_width " +
        std::to_string(bundle_width));
  }
  if (circuit.num_outputs() == 0 || circuit.num_outputs() % width != 0) {
    throw std::invalid_argument(
        "fault: circuit output count " + std::to_string(circuit.num_outputs()) +
        " is not a positive multiple of bundle_width " +
        std::to_string(bundle_width));
  }
}

// ---- PatternFaultSim -------------------------------------------------------

template <int W>
struct PatternFaultSim::Scratch {
  explicit Scratch(const PatternFaultSim& kernel)
      : sim(*kernel.circuit_, kernel.fanouts_),
        obs(kernel.circuit_->node_count()),
        expected(kernel.logical_outputs_),
        base_diff(kernel.logical_outputs_),
        stem_diff(kernel.logical_outputs_),
        bundle_counter(kernel.bundle_width_) {}
  sim::BlockSim<W> sim;  // the good machine, except while a stem is flipped
  std::vector<sim::Block<W>> obs;        // per node: observability at stem
  std::vector<sim::Block<W>> expected;   // per logical output
  std::vector<sim::Block<W>> base_diff;  // good machine ^ expected, valid
  std::vector<sim::Block<W>> stem_diff;  // last flipped stem ^ expected
  sim::LaneCounter bundle_counter;
};

PatternFaultSim::PatternFaultSim(const Circuit& circuit,
                                 const FaultUniverse& universe,
                                 int bundle_width,
                                 std::span<const std::uint32_t> active)
    : circuit_(&circuit),
      fanouts_(circuit),
      outputs_(circuit.outputs()),
      bundle_width_(bundle_width),
      stem_of_(circuit.node_count(), ~NodeId{0}) {
  validate_bundle_interface(circuit, bundle_width);
  const auto width = static_cast<std::size_t>(bundle_width);
  logical_inputs_ = circuit.num_inputs() / width;
  logical_outputs_ = outputs_.size() / width;
  // Stems: primary outputs, then every node whose fanout count is not 1.
  // Any other node belongs to the FFR of its one consumer, which has a
  // larger id, so a descending scan sees the consumer's stem first.
  for (const NodeId out : outputs_) stem_of_[out] = out;
  for (NodeId id = circuit.node_count(); id-- > 0;) {
    if (stem_of_[id] == id) continue;
    const std::span<const NodeId> fanouts = fanouts_.of(id);
    stem_of_[id] = fanouts.size() == 1 ? stem_of_[fanouts[0]] : id;
  }
  active_.reserve(active.size());
  for (const std::uint32_t cls : active) {
    if (cls >= universe.num_classes()) {
      throw std::invalid_argument("fault: active class " + std::to_string(cls) +
                                  " outside universe of " +
                                  std::to_string(universe.num_classes()));
    }
    const FaultSite site = universe.representative(cls);
    active_.push_back({stem_of_[site.node], site.node,
                       site.value == StuckAt::kOne, cls});
  }
  // Grouped by stem, so a block flips each stem at most once.
  std::stable_sort(active_.begin(), active_.end(),
                   [](const ActiveSite& a, const ActiveSite& b) {
                     return a.stem < b.stem;
                   });
}

template <int W>
sim::Block<W> PatternFaultSim::decode_output(Scratch<W>& s,
                                             std::size_t o) const {
  if (bundle_width_ == 1) return s.sim.value(outputs_[o]);
  // Majority decode, one word at a time.
  const auto width = static_cast<std::size_t>(bundle_width_);
  sim::Block<W> decoded;
  for (int k = 0; k < W; ++k) {
    s.bundle_counter.reset();
    for (std::size_t w = 0; w < width; ++w) {
      s.bundle_counter.add(s.sim.value(outputs_[o * width + w]).words[k]);
    }
    decoded.words[k] = s.bundle_counter.greater_than(bundle_width_ / 2);
  }
  return decoded;
}

std::vector<std::size_t> PatternFaultSim::slice_cuts(
    std::size_t slices) const {
  if (slices == 0) {
    throw std::invalid_argument("fault: a cut needs at least 1 slice");
  }
  std::vector<std::size_t> cuts{0};
  for (std::size_t k = 1; k < slices; ++k) {
    // The first group start at or after this slice's share.
    std::size_t cut = std::max(cuts.back(), k * active_.size() / slices);
    while (cut > 0 && cut < active_.size() &&
           active_[cut].stem == active_[cut - 1].stem) {
      ++cut;
    }
    cuts.push_back(cut);
  }
  cuts.push_back(active_.size());
  return cuts;
}

PatternFaultSim::BlockResult PatternFaultSim::detect_block(
    std::span<const Word> inputs, int count, std::span<const Word> expected,
    int segment) const {
  std::vector<std::uint32_t> positions(active_.size());
  std::iota(positions.begin(), positions.end(), std::uint32_t{0});
  return detect_block(inputs, count, expected, segment, positions);
}

PatternFaultSim::BlockResult PatternFaultSim::detect_block(
    std::span<const Word> inputs, int count, std::span<const Word> expected,
    int segment, std::span<const std::uint32_t> positions) const {
  if (count < 1 || count > sim::kBlockPatterns) {
    throw std::invalid_argument("fault: a block holds 1 to " +
                                std::to_string(sim::kBlockPatterns) +
                                " patterns, got " + std::to_string(count));
  }
  const auto words = static_cast<std::size_t>(sim::words_for(count));
  if (inputs.size() != logical_inputs_ * words) {
    throw std::invalid_argument("fault: pattern size mismatch");
  }
  if (!expected.empty() && expected.size() != logical_outputs_ * words) {
    throw std::invalid_argument("fault: expected-output size mismatch");
  }
  if (segment < 1) {
    throw std::invalid_argument("fault: segments hold at least 1 pattern");
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] >= active_.size() ||
        (i > 0 && positions[i] <= positions[i - 1])) {
      throw std::invalid_argument(
          "fault: active positions must ascend below " +
          std::to_string(active_.size()));
    }
  }
  segment = std::min(segment, count);
  BlockResult result;
  sim::with_block_width(static_cast<int>(words), [&](auto width) {
    detect<decltype(width)::value>(inputs, count, expected, segment, positions,
                                   result);
  });
  return result;
}

template <int W>
void PatternFaultSim::detect(std::span<const Word> inputs, int count,
                             std::span<const Word> expected, int segment,
                             std::span<const std::uint32_t> positions,
                             BlockResult& result) const {
  using Block = sim::Block<W>;
  const Circuit& circuit = *circuit_;
  Scratch<W> s(*this);
  const auto words = static_cast<std::size_t>(sim::words_for(count));
  const auto width = static_cast<std::size_t>(bundle_width_);
  const Block valid = Block::low_mask(count);
  // Word k of the caller's i-th of `n` signals; words past the block's are
  // zero.
  const auto load = [&](std::span<const Word> packed, std::size_t n,
                        std::size_t i) {
    Block block;
    for (std::size_t k = 0; k < words; ++k) block.words[k] = packed[k * n + i];
    return block;
  };

  // The good machine, with each logical input broadcast to its bundle.
  std::vector<Block> input_blocks(circuit.num_inputs());
  for (std::size_t slot = 0; slot < input_blocks.size(); ++slot) {
    input_blocks[slot] = load(inputs, logical_inputs_, slot / width);
  }
  s.sim.eval(input_blocks);
  // Where the good machine already misses `expected` (never, when it is
  // the reference itself): a fault that does not reach its stem leaves the
  // outputs exactly there.
  Block base_mismatch;
  for (std::size_t o = 0; o < logical_outputs_; ++o) {
    const Block good = decode_output(s, o);
    s.expected[o] =
        expected.empty() ? good : load(expected, logical_outputs_, o);
    s.base_diff[o] = (good ^ s.expected[o]) & valid;
    base_mismatch |= s.base_diff[o];
  }
  // Observability at the stem, consumers before their fanins: a stem sees
  // itself; a non-stem node is seen where its one consumer is sensitized
  // to it (that consumer forced-1 XOR forced-0) and the consumer is seen.
  for (NodeId id = circuit.node_count(); id-- > 0;) {
    if (stem_of_[id] == id) {
      s.obs[id] = ~Block{};
      continue;
    }
    const NodeId consumer = fanouts_.of(id)[0];
    Block obs = s.obs[consumer];
    if (obs.any()) obs &= s.sim.gate_difference(consumer, id);
    s.obs[id] = obs;
  }

  // Classes stem by stem (an ascending subset of the active list stays
  // grouped): flip a stem only when some graded fault reaches it, then
  // resolve each of its classes in O(1).
  const auto reach_of = [&](std::uint32_t position) {
    const ActiveSite& site = active_[position];
    const Block& good = s.sim.value(site.node);
    return (site.stuck_one ? ~good : good) & s.obs[site.node] & valid;
  };
  std::vector<FirstHit>& first_hits = result.first_hits;
  for (std::size_t begin = 0; begin < positions.size();) {
    const NodeId stem = active_[positions[begin]].stem;
    std::size_t end = begin;
    Block any_reach;
    for (; end < positions.size() && active_[positions[end]].stem == stem;
         ++end) {
      any_reach |= reach_of(positions[end]);
    }
    // The decoded outputs with the stem flipped on every pattern.
    Block stem_detected;
    if (any_reach.any()) {
      result.events += s.sim.flip(stem);
      for (std::size_t o = 0; o < logical_outputs_; ++o) {
        s.stem_diff[o] = decode_output(s, o) ^ s.expected[o];
        stem_detected |= s.stem_diff[o];
      }
      s.sim.restore();
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Block reach = reach_of(positions[i]);
      const Block detected = (reach & stem_detected) | (~reach & base_mismatch);
      if (!detected.any()) continue;
      Detection& hit = result.detections.emplace_back();
      hit.cls = active_[positions[i]].cls;
      hit.position = positions[i];
      std::copy(detected.words.begin(), detected.words.end(),
                hit.patterns.words.begin());
      hit.first_begin = static_cast<std::uint32_t>(first_hits.size());
      // Each segment's lowest detecting pattern sees the flipped stem's
      // outputs where the fault reaches the stem and the good machine's
      // elsewhere.
      for (int p = detected.find_first(0); p < count;) {
        const std::vector<Block>& diffs =
            reach.test(p) ? s.stem_diff : s.base_diff;
        std::uint32_t output = 0;
        while (output < diffs.size() && !diffs[output].test(p)) ++output;
        first_hits.push_back({static_cast<std::uint32_t>(p), output});
        const int next = (p / segment + 1) * segment;
        p = next < count ? detected.find_first(next) : count;
      }
      hit.first_end = static_cast<std::uint32_t>(first_hits.size());
    }
    begin = end;
  }
}

// ---- ScalarFaultSim --------------------------------------------------------

ScalarFaultSim::ScalarFaultSim(const Circuit& circuit,
                               const FaultUniverse& universe, int bundle_width)
    : circuit_(&circuit),
      universe_(&universe),
      bundle_width_(bundle_width),
      values_(circuit.node_count(), 0) {
  validate_bundle_interface(circuit, bundle_width);
}

bool ScalarFaultSim::detect(std::size_t class_index,
                            const std::vector<bool>& pattern,
                            const std::vector<bool>& expected) {
  const Circuit& circuit = *circuit_;
  const auto width = static_cast<std::size_t>(bundle_width_);
  if (pattern.size() * width != circuit.num_inputs()) {
    throw std::invalid_argument("fault: pattern size mismatch");
  }
  if (expected.size() * width != circuit.num_outputs()) {
    throw std::invalid_argument("fault: expected-output size mismatch");
  }
  const FaultSite site = universe_->representative(class_index);

  // Values are sim::Word, 0 or all-ones, so the one gate rule applies to
  // any fanin count; the pattern drives the inputs.
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    Word value = 0;
    if (circuit.type(id) == GateType::kInput) {
      if (pattern[static_cast<std::size_t>(circuit.input_index(id)) / width]) {
        value = ~Word{0};
      }
    } else {
      value = netlist::eval_gate<Word>(circuit.type(id), values_,
                                       circuit.fanins(id));
    }
    if (id == site.node) value = site.value == StuckAt::kOne ? ~Word{0} : 0;
    values_[id] = value;
  }
  ++passes_;

  const std::span<const NodeId> outputs = circuit.outputs();
  const std::size_t logical_outputs = outputs.size() / width;
  for (std::size_t o = 0; o < logical_outputs; ++o) {
    bool decoded = false;
    if (width == 1) {
      decoded = values_[outputs[o]] != 0;
    } else {
      int ones = 0;
      for (std::size_t w = 0; w < width; ++w) {
        ones += values_[outputs[o * width + w]] != 0;
      }
      decoded = ones > bundle_width_ / 2;
    }
    if (decoded != static_cast<bool>(expected[o])) return true;
  }
  return false;
}

}  // namespace enb::fault
