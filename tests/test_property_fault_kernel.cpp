// The pattern-parallel kernel against the scalar one-fault-at-a-time
// reference, on the paths where it can go wrong: an `expected` that is not
// the circuit's own fault-free response (so a fault that never reaches its
// stem is still detected where the good machine misses), patterns revisited
// on one instance, both polarities of one node in one block, faults on
// inputs, constants, dangling nodes and repeated outputs, majority-decoded
// bundles, and the fanout-free-region logic itself: outputs that also feed
// one gate, nodes read twice by one gate, non-stem faults under MAJ, XOR
// and a 17-input AND, and partial blocks. Detection bits and first outputs
// are checked per pattern, one pattern per block, packed, and tiled into
// blocks of up to 512 patterns cut into segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "fault/fault_sim.hpp"
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

// Packs the steps listed in `order` into one block: bit p of word p / 64
// of input i is input i of step order[p], and likewise for expected.
void pack_steps(const std::vector<Step>& steps,
                const std::vector<std::size_t>& order,
                std::vector<sim::Word>& inputs,
                std::vector<sim::Word>& expected) {
  const std::size_t num_inputs = steps[0].pattern.size();
  const std::size_t num_outputs = steps[0].expected.size();
  const auto words =
      static_cast<std::size_t>(sim::words_for(static_cast<int>(order.size())));
  inputs.assign(words * num_inputs, 0);
  expected.assign(words * num_outputs, 0);
  for (std::size_t p = 0; p < order.size(); ++p) {
    const Step& step = steps[order[p]];
    const std::size_t word = p / sim::kWordBits;
    const sim::Word bit = sim::Word{1} << (p % sim::kWordBits);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      if (step.pattern[i]) inputs[word * num_inputs + i] |= bit;
    }
    for (std::size_t o = 0; o < num_outputs; ++o) {
      if (step.expected[o]) expected[word * num_outputs + o] |= bit;
    }
  }
}

// Runs `steps` on one PatternFaultSim built over `active`: first each
// step alone as a one-pattern block, then all of them packed into one
// block, then tiled cyclically into wider blocks cut into segments (130
// patterns in segments of 100, 300 in segments of 7, 512 in one segment),
// then each step alone again. Every active class's detection bit must
// match the reference at every pattern, its first hits must be each
// segment's lowest detecting pattern with that pattern's first output, and
// no padding pattern or inactive class may report anything.
void expect_kernel_matches(const Circuit& circuit,
                           const FaultUniverse& universe, int bundle_width,
                           const std::vector<std::uint32_t>& active,
                           const std::vector<Step>& steps) {
  using Block = sim::Block<sim::kBlockWords>;
  const PatternFaultSim sim(circuit, universe, bundle_width, active);
  std::vector<bool> is_active(universe.num_classes(), false);
  for (const std::uint32_t cls : active) is_active[cls] = true;
  std::vector<sim::Word> inputs;
  std::vector<sim::Word> expected;
  const auto run_block = [&](const std::vector<std::size_t>& order,
                             int segment, const char* how) {
    const int count = static_cast<int>(order.size());
    pack_steps(steps, order, inputs, expected);
    std::vector<Block> want(universe.num_classes());
    for (int p = 0; p < count; ++p) {
      const Step& step = steps[order[static_cast<std::size_t>(p)]];
      for (const std::uint32_t cls : active) {
        if (step.reference[cls] != kNoOutput) {
          want[cls].words[p / sim::kWordBits] |= sim::Word{1}
                                                 << (p % sim::kWordBits);
        }
      }
    }
    std::vector<Block> got(universe.num_classes());
    const PatternFaultSim::BlockResult block =
        sim.detect_block(inputs, count, expected, segment);
    for (const PatternFaultSim::Detection& hit : block.detections) {
      ASSERT_LT(hit.cls, universe.num_classes());
      ASSERT_FALSE((hit.patterns & ~Block::low_mask(count)).any())
          << circuit.name() << " " << how << " class " << hit.cls
          << " detected on a padding pattern";
      EXPECT_TRUE(is_active[hit.cls]) << "inactive class " << hit.cls;
      EXPECT_FALSE(got[hit.cls].any())
          << "class " << hit.cls << " reported twice";
      got[hit.cls] = hit.patterns;
      ASSERT_TRUE(hit.patterns.any());
      std::vector<PatternFaultSim::FirstHit> firsts;
      for (int from = 0; from < count; from += segment) {
        const int p = hit.patterns.find_first(from);
        if (p >= std::min(count, from + segment)) continue;
        firsts.push_back(
            {static_cast<std::uint32_t>(p),
             steps[order[static_cast<std::size_t>(p)]].reference[hit.cls]});
      }
      const std::span<const PatternFaultSim::FirstHit> reported =
          block.first_hits_of(hit);
      ASSERT_EQ(reported.size(), firsts.size())
          << circuit.name() << " " << how << " class " << hit.cls;
      for (std::size_t i = 0; i < firsts.size(); ++i) {
        EXPECT_EQ(reported[i].pattern, firsts[i].pattern)
            << circuit.name() << " " << how << " class " << hit.cls;
        EXPECT_EQ(reported[i].output, firsts[i].output)
            << circuit.name() << " " << how << " pattern "
            << firsts[i].pattern << " class " << hit.cls;
      }
    }
    for (const std::uint32_t cls : active) {
      EXPECT_EQ(got[cls], want[cls])
          << circuit.name() << " " << how << " " << count
          << " patterns, class " << cls;
    }
  };
  const auto tiled = [&](std::size_t count) {
    std::vector<std::size_t> order(count);
    for (std::size_t p = 0; p < count; ++p) order[p] = p % steps.size();
    return order;
  };
  for (std::size_t s = 0; s < steps.size(); ++s) run_block({s}, 1, "alone");
  const int all = static_cast<int>(steps.size());
  run_block(tiled(steps.size()), all, "packed");
  run_block(tiled(130), 100, "tiled");
  run_block(tiled(300), 7, "tiled");
  run_block(tiled(sim::kBlockPatterns), sim::kBlockPatterns, "tiled");
  for (std::size_t s = steps.size(); s-- > 0;) run_block({s}, 1, "again");
}

// Fills each step's reference, then checks the kernel.
void expect_matches_reference(const Circuit& circuit,
                              const FaultUniverse& universe, int bundle_width,
                              const std::vector<std::uint32_t>& active,
                              std::vector<Step> steps) {
  ScalarReference reference(circuit, universe, bundle_width);
  for (Step& step : steps) {
    step.reference = reference.first_outputs(step.pattern, step.expected);
  }
  expect_kernel_matches(circuit, universe, bundle_width, active, steps);
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
      expect_matches_reference(circuit, universe, 1, all_classes(universe),
                               steps);
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
  expect_matches_reference(c432, universe, 1, all_classes(universe), steps);
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
  expect_matches_reference(c432, universe, 1, all_classes(universe), steps);

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
    expect_matches_reference(circuit, full, 1, all_classes(full), interleaved);
  }
}

TEST(FaultKernel, BothPolaritiesOfOneNodeInOneBlock) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const Circuit circuit = random_dag(seed);
    const FaultUniverse universe = FaultUniverse::build(circuit, false);
    // sa0 and sa1 of every node side by side, nodes in descending order so
    // the active list is not in class order either.
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
    expect_matches_reference(circuit, universe, 1, active, steps);
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
    expect_matches_reference(c, universe, 1, all_classes(universe), steps);
    std::vector<std::uint32_t> reversed = all_classes(universe);
    std::reverse(reversed.begin(), reversed.end());
    expect_matches_reference(c, universe, 1, reversed, steps);
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
    expect_matches_reference(mc.circuit, universe, mc.bundle_width,
                             all_classes(universe), steps);
  }
}

// Every input assignment of a small circuit, each against the circuit's own
// response and against that response with output (v mod outputs) flipped.
std::vector<Step> exhaustive_steps(const Circuit& circuit) {
  const std::size_t inputs = circuit.num_inputs();
  std::vector<Step> steps;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << inputs); ++v) {
    std::vector<bool> pattern(inputs);
    for (std::size_t i = 0; i < inputs; ++i) pattern[i] = ((v >> i) & 1) != 0;
    std::vector<bool> expected = sim::eval_single(circuit, pattern);
    steps.push_back({pattern, expected, {}});
    expected[v % expected.size()].flip();
    steps.push_back({pattern, expected, {}});
  }
  return steps;
}

TEST(FaultKernel, OutputsThatFeedOneGateAndNodesReadTwice) {
  Circuit c("ffr-edges");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId d = c.add_input("d");
  // `po` is an output and feeds exactly one gate: a stem, although its
  // fanout count is 1. When `d` is 0 the AND masks it, and only the output
  // itself sees its faults.
  const NodeId po = c.add_gate(GateType::kNand, a, b);
  const NodeId masked = c.add_gate(GateType::kAnd, po, d);
  // `sq` is read twice by one gate and by nothing else: a stem, because its
  // fanout count is 2. XOR(sq, sq) is constant, so its faults are
  // untestable through `zero`; OR(sq, sq) passes them.
  const NodeId sq = c.add_gate(GateType::kXor, a, d);
  const NodeId zero = c.add_gate(GateType::kXor, sq, sq);
  const NodeId sq2 = c.add_gate(GateType::kNor, b, d);
  const NodeId pass = c.add_gate(GateType::kOr, sq2, sq2);
  const NodeId tail = c.add_gate(GateType::kXnor, {masked, zero, pass});
  c.add_output(po);
  c.add_output(tail);
  const std::vector<Step> steps = exhaustive_steps(c);
  for (const bool collapse : {true, false}) {
    const FaultUniverse universe = FaultUniverse::build(c, collapse);
    expect_matches_reference(c, universe, 1, all_classes(universe), steps);
  }
}

TEST(FaultKernel, NonStemFaultsUnderMajXorAndA17InputAnd) {
  Circuit c("ffr-gates");
  std::vector<NodeId> x;
  for (int i = 0; i < 17; ++i) x.push_back(c.add_input());
  // Each NOT feeds only the AND, each NAND/NOR only the MAJ or the XOR, and
  // the AND, MAJ and XOR only the final XNOR: all of them are non-stems in
  // the output's fanout-free region.
  std::vector<NodeId> inverted;
  for (const NodeId in : x) inverted.push_back(c.add_gate(GateType::kNot, in));
  const NodeId wide = c.add_gate(GateType::kAnd, inverted);
  const NodeId m0 = c.add_gate(GateType::kNand, x[0], x[1]);
  const NodeId m1 = c.add_gate(GateType::kNor, x[2], x[3]);
  const NodeId m2 = c.add_gate(GateType::kNand, x[4], x[5]);
  const NodeId maj = c.add_gate(GateType::kMaj, m0, m1, m2);
  const NodeId p0 = c.add_gate(GateType::kNor, x[6], x[7]);
  const NodeId p1 = c.add_gate(GateType::kNand, x[8], x[9]);
  const NodeId parity = c.add_gate(GateType::kXor, p0, p1);
  c.add_output(c.add_gate(GateType::kXnor, {wide, maj, parity}));

  // Random patterns almost never sensitize a 17-input AND, so add the
  // all-zero assignment (every NOT at 1) and each one-hot assignment.
  sim::Xoshiro256 rng(17);
  std::vector<std::vector<bool>> patterns;
  patterns.emplace_back(x.size(), false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<bool> one_hot(x.size(), false);
    one_hot[i] = true;
    patterns.push_back(std::move(one_hot));
  }
  for (int p = 0; p < 60; ++p) {
    patterns.push_back(random_pattern(x.size(), rng));
  }
  std::vector<Step> steps;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    std::vector<bool> expected = sim::eval_single(c, patterns[p]);
    if (p % 7 == 3) expected[0].flip();
    steps.push_back({patterns[p], expected, {}});
  }
  ASSERT_GT(steps.size(), 64u);  // two words, the second partial
  for (const bool collapse : {true, false}) {
    const FaultUniverse universe = FaultUniverse::build(c, collapse);
    expect_matches_reference(c, universe, 1, all_classes(universe), steps);
  }
}

TEST(FaultKernel, NonEquivalentGoldenWhereTheFaultNeverReachesItsStem) {
  // y = AND(NOT a, b) against a golden y = b. Faults inside the cone of
  // NOT a that a = 1 leaves unexcited or b = 0 blocks never reach y, yet
  // every pattern where the golden differs (a = 1, b = 1) detects them.
  Circuit c("unreached");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId na = c.add_gate(GateType::kNot, a);
  const NodeId bb = c.add_gate(GateType::kBuf, b);
  c.add_output(c.add_gate(GateType::kAnd, na, bb), "y");
  c.add_output(c.add_gate(GateType::kOr, a, b), "z");
  std::vector<Step> steps;
  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::vector<bool> pattern{(v & 1) != 0, (v & 2) != 0};
    steps.push_back({pattern, {pattern[1], pattern[0] || pattern[1]}, {}});
  }
  for (const bool collapse : {true, false}) {
    const FaultUniverse universe = FaultUniverse::build(c, collapse);
    expect_matches_reference(c, universe, 1, all_classes(universe), steps);
  }
}

TEST(FaultKernel, HandWrittenBundleOfThreeAgainstAPlainNand) {
  // Three NAND replicas decoded by majority against one NAND (the CLI's
  // --bundle-width 3 --golden case): no single fault survives decoding, so
  // only the flipped-expected steps detect anything.
  Circuit c("nand3");
  std::vector<NodeId> a;
  std::vector<NodeId> b;
  for (int w = 0; w < 3; ++w) a.push_back(c.add_input());
  for (int w = 0; w < 3; ++w) b.push_back(c.add_input());
  std::vector<NodeId> y;
  for (int w = 0; w < 3; ++w) {
    y.push_back(c.add_gate(GateType::kNand, a[w], b[w]));
  }
  for (const NodeId out : y) c.add_output(out);
  std::vector<Step> steps;
  for (std::uint64_t v = 0; v < 4; ++v) {
    const bool va = (v & 1) != 0;
    const bool vb = (v & 2) != 0;
    steps.push_back({{va, vb}, {!(va && vb)}, {}});
    steps.push_back({{va, vb}, {va && vb}, {}});
  }
  for (const bool collapse : {true, false}) {
    const FaultUniverse universe = FaultUniverse::build(c, collapse);
    expect_matches_reference(c, universe, 3, all_classes(universe), steps);
  }
}

}  // namespace
}  // namespace enb::fault
