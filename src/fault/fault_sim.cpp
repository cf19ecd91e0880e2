#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "netlist/gate_type.hpp"

namespace enb::fault {

namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using sim::Word;

// Bit `id` of a node-id bitset.
constexpr std::size_t word_of(NodeId id) noexcept {
  return id / sim::kWordBits;
}
constexpr Word bit_of(NodeId id) noexcept {
  return Word{1} << (id % sim::kWordBits);
}

}  // namespace

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

PatternFaultSim::PatternFaultSim(const Circuit& circuit,
                                 const FaultUniverse& universe,
                                 int bundle_width)
    : circuit_(&circuit),
      fanouts_(circuit),
      universe_(&universe),
      outputs_(circuit.outputs()),
      bundle_width_(bundle_width),
      stem_of_(circuit.node_count(), ~NodeId{0}),
      values_(circuit.node_count(), 0),
      obs_(circuit.node_count(), 0),
      pending_(circuit.node_count() / sim::kWordBits + 1, 0),
      bundle_counter_(bundle_width > 0 ? bundle_width : 1) {
  validate_bundle_interface(circuit, bundle_width);
  logical_inputs_ =
      circuit.num_inputs() / static_cast<std::size_t>(bundle_width);
  const std::size_t logical_outputs =
      outputs_.size() / static_cast<std::size_t>(bundle_width);
  expected_.assign(logical_outputs, 0);
  base_diff_.assign(logical_outputs, 0);
  stem_diff_.assign(logical_outputs, 0);
  // Stems: primary outputs, then every node whose fanout count is not 1.
  // Any other node belongs to the FFR of its one consumer, which has a
  // larger id, so a descending scan sees the consumer's stem first.
  for (const NodeId out : outputs_) stem_of_[out] = out;
  for (NodeId id = circuit.node_count(); id-- > 0;) {
    if (stem_of_[id] == id) continue;
    const std::span<const NodeId> fanouts = fanouts_.of(id);
    stem_of_[id] = fanouts.size() == 1 ? stem_of_[fanouts[0]] : id;
  }
  std::vector<std::uint32_t> all(universe.num_classes());
  std::iota(all.begin(), all.end(), 0u);
  set_active(all);
}

void PatternFaultSim::set_active(const std::vector<std::uint32_t>& classes) {
  std::vector<ActiveSite> sites;
  sites.reserve(classes.size());
  for (const std::uint32_t cls : classes) {
    if (cls >= universe_->num_classes()) {
      throw std::invalid_argument("fault: active class " + std::to_string(cls) +
                                  " outside universe of " +
                                  std::to_string(universe_->num_classes()));
    }
    const FaultSite& site = universe_->representative(cls);
    sites.push_back({stem_of_[site.node], site.node,
                     site.value == StuckAt::kOne ? sim::kAllOnes : Word{0},
                     cls});
  }
  // Grouped by stem, so detect_word flips each stem at most once.
  std::stable_sort(sites.begin(), sites.end(),
                   [](const ActiveSite& a, const ActiveSite& b) {
                     return a.stem < b.stem;
                   });
  active_ = std::move(sites);
}

Word PatternFaultSim::decode_output(std::size_t o) {
  if (bundle_width_ == 1) return values_[outputs_[o]];
  const auto width = static_cast<std::size_t>(bundle_width_);
  bundle_counter_.reset();
  for (std::size_t w = 0; w < width; ++w) {
    bundle_counter_.add(values_[outputs_[o * width + w]]);
  }
  return bundle_counter_.greater_than(bundle_width_ / 2);
}

Word PatternFaultSim::flip_stem(NodeId stem) {
  touched_.clear();
  touched_.emplace_back(stem, values_[stem]);
  values_[stem] = ~values_[stem];
  const std::span<const NodeId> stem_fanouts = fanouts_.of(stem);
  if (!stem_fanouts.empty()) {
    for (const NodeId fanout : stem_fanouts) {
      pending_[word_of(fanout)] |= bit_of(fanout);
    }
    // Event-driven sweep: ids are topological and every fanout has a larger
    // id than its driver, so scanning the pending bitset upward evaluates
    // each queued node once, after all of its fanins. A node that still
    // equals the good machine stops there; one that differs queues its
    // fanouts (fanouts ascend, so the last one bounds the scan).
    std::size_t last = word_of(stem_fanouts.back());
    for (std::size_t w = word_of(stem_fanouts.front()); w <= last; ++w) {
      while (pending_[w] != 0) {
        const Word bits = pending_[w];
        pending_[w] = bits & (bits - 1);
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        const auto id = static_cast<NodeId>(w * sim::kWordBits + bit);
        const Word value = netlist::eval_gate<Word>(
            circuit_->type(id), values_, circuit_->fanins(id));
        ++events_;
        if (value == values_[id]) continue;
        touched_.emplace_back(id, values_[id]);
        values_[id] = value;
        const std::span<const NodeId> fanouts = fanouts_.of(id);
        for (const NodeId fanout : fanouts) {
          pending_[word_of(fanout)] |= bit_of(fanout);
        }
        if (!fanouts.empty()) last = std::max(last, word_of(fanouts.back()));
      }
    }
  }
  Word detected = 0;
  for (std::size_t o = 0; o < stem_diff_.size(); ++o) {
    stem_diff_[o] = decode_output(o) ^ expected_[o];
    detected |= stem_diff_[o];
  }
  for (const auto& [id, good] : touched_) values_[id] = good;
  return detected;
}

const std::vector<PatternFaultSim::Detection>& PatternFaultSim::detect_word(
    std::span<const Word> inputs, int count, std::span<const Word> expected) {
  const auto width = static_cast<std::size_t>(bundle_width_);
  if (inputs.size() != logical_inputs_) {
    throw std::invalid_argument("fault: pattern size mismatch");
  }
  if (!expected.empty() && expected.size() != expected_.size()) {
    throw std::invalid_argument("fault: expected-output size mismatch");
  }
  if (count < 1 || count > sim::kWordBits) {
    throw std::invalid_argument("fault: a word holds 1 to 64 patterns, got " +
                                std::to_string(count));
  }
  const Word valid = sim::low_mask(count);

  // The good machine, with each logical input broadcast to its bundle.
  const Circuit& circuit = *circuit_;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const int slot = circuit.input_index(id);
    values_[id] = slot >= 0 ? inputs[static_cast<std::size_t>(slot) / width]
                            : netlist::eval_gate<Word>(circuit.type(id), values_,
                                                       circuit.fanins(id));
  }
  // Where the good machine already misses `expected` (never, when it is
  // the reference itself): a fault that does not reach its stem leaves the
  // outputs exactly there.
  Word base_mismatch = 0;
  for (std::size_t o = 0; o < expected_.size(); ++o) {
    const Word good = decode_output(o);
    expected_[o] = expected.empty() ? good : expected[o];
    base_diff_[o] = (good ^ expected_[o]) & valid;
    base_mismatch |= base_diff_[o];
  }
  // Observability at the stem, consumers before their fanins: a stem sees
  // itself; a non-stem node is seen where its one consumer is sensitized
  // to it (that consumer forced-1 XOR forced-0) and the consumer is seen.
  for (NodeId id = circuit.node_count(); id-- > 0;) {
    if (stem_of_[id] == id) {
      obs_[id] = sim::kAllOnes;
      continue;
    }
    const NodeId consumer = fanouts_.of(id)[0];
    Word obs = obs_[consumer];
    if (obs != 0) {
      const Word good = values_[id];
      values_[id] = sim::kAllOnes;
      const Word high = netlist::eval_gate<Word>(
          circuit.type(consumer), values_, circuit.fanins(consumer));
      values_[id] = 0;
      const Word low = netlist::eval_gate<Word>(
          circuit.type(consumer), values_, circuit.fanins(consumer));
      values_[id] = good;
      obs &= high ^ low;
    }
    obs_[id] = obs;
  }

  // Classes stem by stem: flip a stem only when some active fault reaches
  // it, then resolve each of its classes in O(1).
  const auto reach_of = [&](const ActiveSite& site) {
    return (values_[site.node] ^ site.stuck) & obs_[site.node] & valid;
  };
  detections_.clear();
  for (std::size_t begin = 0; begin < active_.size();) {
    const NodeId stem = active_[begin].stem;
    std::size_t end = begin;
    Word any_reach = 0;
    for (; end < active_.size() && active_[end].stem == stem; ++end) {
      any_reach |= reach_of(active_[end]);
    }
    const Word stem_detected = any_reach != 0 ? flip_stem(stem) : 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Word reach = reach_of(active_[i]);
      const Word detected = (reach & stem_detected) | (~reach & base_mismatch);
      if (detected == 0) continue;
      // The lowest detecting pattern sees the flipped stem's outputs where
      // the fault reaches the stem and the good machine's elsewhere.
      const Word first = detected & (~detected + 1);
      const std::vector<Word>& diffs =
          (reach & first) != 0 ? stem_diff_ : base_diff_;
      std::uint32_t output = 0;
      while (output < diffs.size() && (diffs[output] & first) == 0) ++output;
      detections_.push_back({active_[i].cls, detected, output});
    }
    begin = end;
  }
  return detections_;
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
  const FaultSite& site = universe_->representative(class_index);

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
