#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

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

// ---- LaneFaultSim ----------------------------------------------------------

template <typename V>
LaneFaultSim<V>::LaneFaultSim(const Circuit& circuit,
                              const FaultUniverse& universe, int bundle_width)
    : circuit_(&circuit),
      flat_(circuit),
      universe_(&universe),
      bundle_width_(bundle_width),
      values_(circuit.node_count(), V{}),
      good_(circuit.node_count() / sim::kWordBits + 1, 0),
      pending_(good_.size(), 0),
      force0_(circuit.node_count(), V{}),
      force1_(circuit.node_count(), V{}),
      bundle_counter_(bundle_width > 0 ? bundle_width : 1) {
  validate_bundle_interface(circuit, bundle_width);
  active_.resize(universe.num_classes());
  std::iota(active_.begin(), active_.end(), 0u);
}

template <typename V>
void LaneFaultSim<V>::set_active(std::vector<std::uint32_t> classes) {
  for (const std::uint32_t cls : classes) {
    if (cls >= universe_->num_classes()) {
      throw std::invalid_argument("fault: active class " + std::to_string(cls) +
                                  " outside universe of " +
                                  std::to_string(universe_->num_classes()));
    }
  }
  active_ = std::move(classes);
}

template <typename V>
V LaneFaultSim<V>::block_mask(std::size_t block) const {
  const std::size_t begin = block * static_cast<std::size_t>(kLanesPerBlock);
  if (begin >= active_.size()) return V{};
  const std::size_t lanes = std::min<std::size_t>(
      static_cast<std::size_t>(kLanesPerBlock), active_.size() - begin);
  return lane_low_mask<V>(static_cast<int>(lanes));
}

template <typename V>
V LaneFaultSim<V>::decode_output(std::size_t o) {
  const std::span<const NodeId> outputs = circuit_->outputs();
  const auto width = static_cast<std::size_t>(bundle_width_);
  if (width == 1) return values_[outputs[o]];
  bundle_counter_.reset();
  for (std::size_t w = 0; w < width; ++w) {
    bundle_counter_.add(values_[outputs[o * width + w]]);
  }
  return bundle_counter_.greater_than(bundle_width_ / 2);
}

template <typename V>
void LaneFaultSim<V>::simulate_good(const std::vector<bool>& pattern) {
  const auto width = static_cast<std::size_t>(bundle_width_);
  std::fill(good_.begin(), good_.end(), 0);
  for (NodeId id = 0; id < flat_.node_count(); ++id) {
    const int slot = flat_.input_slot(id);
    const V value =
        slot >= 0
            ? lane_broadcast<V>(pattern[static_cast<std::size_t>(slot) / width])
            : netlist::eval_gate<V>(flat_.type(id), values_, flat_.fanins(id));
    values_[id] = value;
    if ((lane_word(value, 0) & 1) != 0) good_[word_of(id)] |= bit_of(id);
  }
  touched_.clear();
  pattern_ = pattern;
}

template <typename V>
V LaneFaultSim<V>::detect_block(std::size_t block,
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
  if (block >= num_blocks()) {
    throw std::invalid_argument("fault: block index out of range");
  }
  const std::size_t first = block * static_cast<std::size_t>(kLanesPerBlock);
  const std::size_t lanes = std::min<std::size_t>(
      static_cast<std::size_t>(kLanesPerBlock), active_.size() - first);

  // Back to the good machine: re-simulate it on a new pattern, or restore
  // just the nodes the previous block changed.
  if (pattern != pattern_) {
    simulate_good(pattern);
  } else {
    for (const NodeId id : touched_) {
      values_[id] = lane_broadcast<V>((good_[word_of(id)] & bit_of(id)) != 0);
    }
    touched_.clear();
  }

  // Lane L of this block is the circuit under the representative fault of
  // active class first + L: record the per-node force masks (cleared again
  // below) and queue every injected site.
  std::size_t lowest = pending_.size();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const FaultSite& site = universe_->representative(active_[first + lane]);
    lane_set_bit(site.value == StuckAt::kZero ? force0_[site.node]
                                              : force1_[site.node],
                 static_cast<int>(lane));
    pending_[word_of(site.node)] |= bit_of(site.node);
    lowest = std::min(lowest, word_of(site.node));
  }

  // Event-driven sweep: ids are topological and every fanout has a larger
  // id than its driver, so scanning the pending bitset upward evaluates each
  // queued node once, after all of its fanins. A node whose lanes all equal
  // the good machine stops there; one that differs is kept and queues its
  // fanouts. Forcing applies at every evaluated node, so faults on inputs
  // and constants inject exactly like gate-output faults.
  for (std::size_t w = lowest; w < pending_.size(); ++w) {
    while (pending_[w] != 0) {
      const Word bits = pending_[w];
      pending_[w] = bits & (bits - 1);
      const auto id = static_cast<NodeId>(w * sim::kWordBits +
                                          static_cast<std::size_t>(
                                              std::countr_zero(bits)));
      const GateType type = flat_.type(id);
      V value = type == GateType::kInput
                    ? values_[id]
                    : netlist::eval_gate<V>(type, values_, flat_.fanins(id));
      value = (value & ~force0_[id]) | force1_[id];
      ++events_;
      if (!lane_any(value ^ values_[id])) continue;
      values_[id] = value;
      touched_.push_back(id);
      for (const NodeId fanout : flat_.fanouts(id)) {
        pending_[word_of(fanout)] |= bit_of(fanout);
      }
    }
  }
  // Normalized pass accounting: a block over `lanes` active lanes costs the
  // same as the 64-lane engine would pay for them, so totals are identical
  // for every vector width.
  passes_ += (static_cast<std::uint64_t>(lanes) + sim::kWordBits - 1) /
             sim::kWordBits;

  // Decode each logical output's bundle per lane and compare against the
  // expected fault-free bit; any difference marks the lane detected.
  V detected = V{};
  const std::size_t logical_outputs = circuit.outputs().size() / width;
  for (std::size_t o = 0; o < logical_outputs; ++o) {
    detected |= decode_output(o) ^ lane_broadcast<V>(expected[o]);
  }

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const FaultSite& site = universe_->representative(active_[first + lane]);
    force0_[site.node] = V{};
    force1_[site.node] = V{};
  }
  return detected & block_mask(block);
}

template <typename V>
void LaneFaultSim<V>::first_outputs(std::size_t block, V lanes,
                                    const std::vector<bool>& expected,
                                    std::vector<std::uint32_t>& out) {
  const auto width = static_cast<std::size_t>(bundle_width_);
  const std::size_t logical_outputs = circuit_->outputs().size() / width;
  out.assign(static_cast<std::size_t>(kLanesPerBlock), kNoOutput);
  lanes &= block_mask(block);
  V remaining = lanes;
  for (std::size_t o = 0; o < logical_outputs && lane_any(remaining); ++o) {
    const V hit =
        (decode_output(o) ^ lane_broadcast<V>(expected[o])) & remaining;
    for (int w = 0; w < kLaneWords<V>; ++w) {
      Word bits = lane_word(hit, w);
      while (bits != 0) {
        const int lane = std::countr_zero(bits);
        out[static_cast<std::size_t>(w) * sim::kWordBits +
            static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(o);
        bits &= bits - 1;
      }
    }
    remaining &= ~hit;
  }
}

template class LaneFaultSim<sim::Word>;
template class LaneFaultSim<LaneVec128>;
template class LaneFaultSim<LaneVec256>;
template class LaneFaultSim<LaneVec512>;

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
