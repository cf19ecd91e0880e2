// Every LaneFaultSim width against the scalar one-fault-at-a-time reference,
// on the paths where a simulator that keeps state between calls can go
// wrong: an `expected` that is not the circuit's own fault-free response,
// patterns revisited on one instance, both polarities of one node in one
// block, faults on inputs, constants, dangling nodes and repeated outputs,
// and majority-decoded bundles. Both detect_block and first_outputs are
// checked lane by lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "fault/fault_sim.hpp"
#include "fault/lanes.hpp"
#include "ft/multiplex.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

std::vector<bool> random_pattern(std::size_t inputs, sim::Xoshiro256& rng) {
  std::vector<bool> row(inputs);
  for (std::size_t i = 0; i < inputs; ++i) row[i] = (rng.next() >> 63) != 0;
  return row;
}

// `circuit` with only its first `ports` output ports.
Circuit with_output_prefix(const Circuit& circuit, std::size_t ports) {
  Circuit out(circuit.name());
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const GateType type = circuit.type(id);
    if (type == GateType::kInput) {
      out.add_input();
    } else if (netlist::is_constant(type)) {
      out.add_const(type == GateType::kConst1);
    } else {
      const auto fanins = circuit.fanins(id);
      out.add_gate(type, std::vector<NodeId>(fanins.begin(), fanins.end()));
    }
  }
  for (std::size_t p = 0; p < ports; ++p) out.add_output(circuit.outputs()[p]);
  return out;
}

// The reference detectability map of one (pattern, expected) step, from
// ScalarFaultSim alone: a class's first output is the lowest logical output
// o such that the circuit cut down to outputs 0..o already detects it.
class ScalarReference {
 public:
  ScalarReference(const Circuit& circuit, const FaultUniverse& universe,
                  int bundle_width)
      : universe_(&universe), width_(static_cast<std::size_t>(bundle_width)) {
    const std::size_t logical = circuit.num_outputs() / width_;
    prefixes_.reserve(logical);
    for (std::size_t o = 1; o <= logical; ++o) {
      prefixes_.push_back(with_output_prefix(circuit, o * width_));
    }
    sims_.reserve(logical);
    for (const Circuit& prefix : prefixes_) {
      sims_.emplace_back(prefix, universe, bundle_width);
    }
    full_.emplace_back(circuit, universe, bundle_width);
  }

  // Per class: the first detecting logical output, or kNoOutput.
  std::vector<std::uint32_t> first_outputs(const std::vector<bool>& pattern,
                                           const std::vector<bool>& expected) {
    std::vector<std::uint32_t> out(universe_->num_classes(), kNoOutput);
    for (std::size_t c = 0; c < out.size(); ++c) {
      if (!full_[0].detect(c, pattern, expected)) continue;
      for (std::size_t o = 0; o < sims_.size(); ++o) {
        const std::vector<bool> prefix(expected.begin(),
                                       expected.begin() + o + 1);
        if (sims_[o].detect(c, pattern, prefix)) {
          out[c] = static_cast<std::uint32_t>(o);
          break;
        }
      }
      EXPECT_NE(out[c], kNoOutput) << "class " << c;
    }
    return out;
  }

 private:
  const FaultUniverse* universe_;
  std::size_t width_;
  std::vector<Circuit> prefixes_;
  std::vector<ScalarFaultSim> sims_;
  std::vector<ScalarFaultSim> full_;
};

struct Step {
  std::vector<bool> pattern;
  std::vector<bool> expected;
  std::vector<std::uint32_t> reference;  // per class, from ScalarReference
};

// Runs `steps` in order on one LaneFaultSim<V> instance over `active`,
// checking every lane of every block after each detect_block and the
// first_outputs call that follows it.
template <typename V>
void expect_width_matches(const Circuit& circuit, const FaultUniverse& universe,
                          int bundle_width,
                          const std::vector<std::uint32_t>& active,
                          const std::vector<Step>& steps) {
  constexpr int kLanes = kLaneBits<V>;
  LaneFaultSim<V> sim(circuit, universe, bundle_width);
  sim.set_active(active);
  std::vector<std::uint32_t> firsts;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    for (std::size_t b = 0; b < sim.num_blocks(); ++b) {
      const V detected = sim.detect_block(b, step.pattern, step.expected);
      sim.first_outputs(b, detected, step.expected, firsts);
      ASSERT_EQ(firsts.size(), static_cast<std::size_t>(kLanes));
      for (int lane = 0; lane < kLanes; ++lane) {
        const std::size_t slot = b * kLanes + static_cast<std::size_t>(lane);
        const bool bit = lane_bit(detected, lane);
        if (slot >= active.size()) {
          EXPECT_FALSE(bit) << "padding lane " << lane;
          EXPECT_EQ(firsts[static_cast<std::size_t>(lane)], kNoOutput);
          continue;
        }
        const std::uint32_t want = step.reference[active[slot]];
        EXPECT_EQ(bit, want != kNoOutput)
            << circuit.name() << " width " << kLanes << " step " << s
            << " class " << active[slot];
        EXPECT_EQ(firsts[static_cast<std::size_t>(lane)], want)
            << circuit.name() << " width " << kLanes << " step " << s
            << " class " << active[slot];
      }
    }
  }
}

// Fills each step's reference, then checks every lane width.
void expect_all_widths(const Circuit& circuit, const FaultUniverse& universe,
                       int bundle_width,
                       const std::vector<std::uint32_t>& active,
                       std::vector<Step> steps) {
  ScalarReference reference(circuit, universe, bundle_width);
  for (Step& step : steps) {
    step.reference = reference.first_outputs(step.pattern, step.expected);
  }
  expect_width_matches<sim::Word>(circuit, universe, bundle_width, active,
                                  steps);
  expect_width_matches<LaneVec128>(circuit, universe, bundle_width, active,
                                   steps);
  expect_width_matches<LaneVec256>(circuit, universe, bundle_width, active,
                                   steps);
  expect_width_matches<LaneVec512>(circuit, universe, bundle_width, active,
                                   steps);
}

std::vector<std::uint32_t> all_classes(const FaultUniverse& universe) {
  std::vector<std::uint32_t> active(universe.num_classes());
  for (std::size_t c = 0; c < active.size(); ++c) {
    active[c] = static_cast<std::uint32_t>(c);
  }
  return active;
}

Circuit random_dag(std::uint64_t seed, int max_fanin = 3) {
  gen::RandomCircuitOptions options;
  options.num_inputs = 10;
  options.num_gates = 80;
  options.num_outputs = 6;
  options.max_fanin = max_fanin;
  options.seed = seed;
  return gen::random_circuit(options);
}

TEST(FaultKernel, ExpectedFromANonEquivalentGoldenOrFlippedBits) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Circuit circuit = random_dag(seed);
    const Circuit golden = random_dag(seed + 100);
    ASSERT_EQ(golden.num_inputs(), circuit.num_inputs());
    ASSERT_EQ(golden.num_outputs(), circuit.num_outputs());
    sim::Xoshiro256 rng(seed * 31);
    std::vector<Step> steps;
    for (int p = 0; p < 4; ++p) {
      const std::vector<bool> pattern =
          random_pattern(circuit.num_inputs(), rng);
      steps.push_back({pattern, sim::eval_single(golden, pattern), {}});
      std::vector<bool> flipped = sim::eval_single(circuit, pattern);
      flipped[static_cast<std::size_t>(p) % flipped.size()].flip();
      steps.push_back({pattern, flipped, {}});
      std::vector<bool> inverted = sim::eval_single(circuit, pattern);
      inverted.flip();
      steps.push_back({pattern, inverted, {}});
    }
    for (const bool collapse : {true, false}) {
      const FaultUniverse universe = FaultUniverse::build(circuit, collapse);
      expect_all_widths(circuit, universe, 1, all_classes(universe), steps);
    }
  }
  const Circuit c432 = gen::find_benchmark("c432").build();
  sim::Xoshiro256 rng(432);
  std::vector<Step> steps;
  for (int p = 0; p < 3; ++p) {
    const std::vector<bool> pattern = random_pattern(c432.num_inputs(), rng);
    std::vector<bool> flipped = sim::eval_single(c432, pattern);
    flipped[static_cast<std::size_t>(p)].flip();
    steps.push_back({pattern, flipped, {}});
  }
  const FaultUniverse universe = FaultUniverse::build(c432);
  expect_all_widths(c432, universe, 1, all_classes(universe), steps);
}

TEST(FaultKernel, PatternsInterleavedOnOneInstance) {
  const Circuit c432 = gen::find_benchmark("c432").build();
  sim::Xoshiro256 rng(0xAB);
  const std::vector<bool> a = random_pattern(c432.num_inputs(), rng);
  const std::vector<bool> b = random_pattern(c432.num_inputs(), rng);
  std::vector<Step> steps;
  for (const std::vector<bool>* pattern : {&a, &b, &a, &a, &b}) {
    steps.push_back({*pattern, sim::eval_single(c432, *pattern), {}});
  }
  const FaultUniverse universe = FaultUniverse::build(c432);
  expect_all_widths(c432, universe, 1, all_classes(universe), steps);

  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    const Circuit circuit = random_dag(seed);
    sim::Xoshiro256 local(seed);
    const std::vector<bool> x = random_pattern(circuit.num_inputs(), local);
    const std::vector<bool> y = random_pattern(circuit.num_inputs(), local);
    std::vector<Step> interleaved;
    for (const std::vector<bool>* pattern : {&x, &y, &x}) {
      interleaved.push_back(
          {*pattern, sim::eval_single(circuit, *pattern), {}});
    }
    const FaultUniverse full = FaultUniverse::build(circuit, false);
    expect_all_widths(circuit, full, 1, all_classes(full), interleaved);
  }
}

TEST(FaultKernel, BothPolaritiesOfOneNodeInOneBlock) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const Circuit circuit = random_dag(seed);
    const FaultUniverse universe = FaultUniverse::build(circuit, false);
    // sa0 and sa1 of every node side by side, nodes in descending order so
    // a block's sites are not in lane order either.
    std::vector<std::uint32_t> active;
    for (std::size_t net = universe.num_nets(); net-- > 0;) {
      active.push_back(static_cast<std::uint32_t>(universe.class_of(2 * net)));
      active.push_back(
          static_cast<std::uint32_t>(universe.class_of(2 * net + 1)));
    }
    sim::Xoshiro256 rng(seed);
    std::vector<Step> steps;
    for (int p = 0; p < 4; ++p) {
      const std::vector<bool> pattern =
          random_pattern(circuit.num_inputs(), rng);
      steps.push_back({pattern, sim::eval_single(circuit, pattern), {}});
    }
    expect_all_widths(circuit, universe, 1, active, steps);
  }
}

TEST(FaultKernel, InputsConstantsDanglingNodesAndRepeatedOutputs) {
  Circuit c("edges");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId k0 = c.add_const(false);
  const NodeId k1 = c.add_const(true);
  const NodeId cin = c.add_input("c");
  const NodeId g1 = c.add_gate(GateType::kAnd, a, k1);
  const NodeId g2 = c.add_gate(GateType::kOr, b, k0);
  const NodeId g3 = c.add_gate(GateType::kXor, {g1, g2, cin});
  const NodeId dangling = c.add_gate(GateType::kNand, a, cin);
  c.add_gate(GateType::kNot, dangling);  // dangling too, fed by one
  const NodeId twice = c.add_gate(GateType::kAnd, g1, g1);
  const NodeId maj = c.add_gate(GateType::kMaj, g3, twice, b);
  const NodeId buf = c.add_gate(GateType::kBuf, maj);
  const NodeId inv = c.add_gate(GateType::kXnor, k0, cin);
  c.add_output(g3);
  c.add_output(buf);
  c.add_output(g3);
  c.add_output(a);
  c.add_output(k1);
  c.add_output(inv);
  c.add_output(buf);

  std::vector<Step> steps;
  for (std::uint64_t v = 0; v < 8; ++v) {
    const std::vector<bool> pattern{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0};
    std::vector<bool> expected = sim::eval_single(c, pattern);
    steps.push_back({pattern, expected, {}});
    expected[v % expected.size()].flip();
    steps.push_back({pattern, expected, {}});
  }
  // Revisit the first pattern after all others.
  steps.push_back(steps.front());
  for (const bool collapse : {true, false}) {
    const FaultUniverse universe = FaultUniverse::build(c, collapse);
    expect_all_widths(c, universe, 1, all_classes(universe), steps);
    std::vector<std::uint32_t> reversed = all_classes(universe);
    std::reverse(reversed.begin(), reversed.end());
    expect_all_widths(c, universe, 1, reversed, steps);
  }
}

TEST(FaultKernel, MultiplexedBundlesOfThree) {
  ft::MultiplexOptions options;
  options.bundle_width = 3;
  for (const Circuit& base :
       {gen::find_benchmark("c17").build(), random_dag(21, 2)}) {
    const ft::MultiplexedCircuit mc = ft::multiplex_transform(base, options);
    sim::Xoshiro256 rng(mc.circuit.node_count());
    std::vector<Step> steps;
    for (int p = 0; p < 4; ++p) {
      const std::vector<bool> pattern = random_pattern(base.num_inputs(), rng);
      std::vector<bool> expected = sim::eval_single(base, pattern);
      steps.push_back({pattern, expected, {}});
      expected[static_cast<std::size_t>(p) % expected.size()].flip();
      steps.push_back({pattern, expected, {}});
    }
    steps.push_back(steps.front());
    const FaultUniverse universe = FaultUniverse::build(mc.circuit);
    expect_all_widths(mc.circuit, universe, mc.bundle_width,
                      all_classes(universe), steps);
  }
}

}  // namespace
}  // namespace enb::fault
