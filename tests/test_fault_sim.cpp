// Bit-parallel vs scalar-reference fault-simulation equivalence, and the
// pass-reduction contract the fault packing exists for.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "ft/multiplex.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;

std::vector<std::vector<bool>> random_patterns(std::size_t count,
                                               std::size_t inputs,
                                               std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<std::vector<bool>> rows(count);
  for (auto& row : rows) {
    row.resize(inputs);
    for (std::size_t i = 0; i < inputs; ++i) row[i] = (rng.next() >> 63) != 0;
  }
  return rows;
}

// Every class of the universe: the active list of an unsampled campaign.
std::vector<std::uint32_t> every_class(const FaultUniverse& universe) {
  return sampled_classes(universe, CampaignOptions{});
}

// Detection bits [pattern][class] from the pattern-parallel kernel: the
// patterns are packed 512 to a block (the last block partial), each
// compared against its own fault-free response.
std::vector<std::vector<bool>> kernel_bits(
    const Circuit& circuit, const FaultUniverse& universe,
    const std::vector<std::vector<bool>>& patterns) {
  const PatternFaultSim sim(circuit, universe, 1, every_class(universe));
  std::vector<std::vector<bool>> bits(
      patterns.size(), std::vector<bool>(universe.num_classes(), false));
  const std::size_t num_inputs = circuit.num_inputs();
  const std::size_t num_outputs = circuit.num_outputs();
  for (std::size_t begin = 0; begin < patterns.size();
       begin += sim::kBlockPatterns) {
    const int count = static_cast<int>(
        std::min<std::size_t>(sim::kBlockPatterns, patterns.size() - begin));
    const auto words = static_cast<std::size_t>(sim::words_for(count));
    std::vector<sim::Word> inputs(words * num_inputs, 0);
    std::vector<sim::Word> expected(words * num_outputs, 0);
    for (int p = 0; p < count; ++p) {
      const std::vector<bool>& pattern = patterns[begin + p];
      const std::vector<bool> good = sim::eval_single(circuit, pattern);
      const std::size_t word = static_cast<std::size_t>(p) / sim::kWordBits;
      const sim::Word bit = sim::Word{1} << (p % sim::kWordBits);
      for (std::size_t i = 0; i < num_inputs; ++i) {
        if (pattern[i]) inputs[word * num_inputs + i] |= bit;
      }
      for (std::size_t o = 0; o < num_outputs; ++o) {
        if (good[o]) expected[word * num_outputs + o] |= bit;
      }
    }
    for (const PatternFaultSim::Detection& hit :
         sim.detect_block(inputs, count, expected).detections) {
      EXPECT_FALSE(
          (hit.patterns & ~sim::Block<sim::kBlockWords>::low_mask(count)).any())
          << circuit.name() << " class " << hit.cls << " padding bits";
      for (int p = 0; p < count; ++p) {
        bits[begin + p][hit.cls] = hit.patterns.test(p);
      }
    }
  }
  return bits;
}

// Every (pattern, class) detection bit of the pattern-parallel simulator
// must equal the scalar one-fault-at-a-time reference. The two paths share
// only the gate rule, so this is a real cross-implementation check.
void expect_bit_identity(const Circuit& circuit,
                         const std::vector<std::vector<bool>>& patterns,
                         bool collapse) {
  const FaultUniverse universe = FaultUniverse::build(circuit, collapse);
  ScalarFaultSim scalar(circuit, universe);
  const std::vector<std::vector<bool>> parallel =
      kernel_bits(circuit, universe, patterns);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::vector<bool> expected = sim::eval_single(circuit, patterns[p]);
    for (std::size_t c = 0; c < universe.num_classes(); ++c) {
      EXPECT_EQ(scalar.detect(c, patterns[p], expected), parallel[p][c])
          << circuit.name() << " pattern " << p << " class " << c;
    }
  }
}

TEST(FaultSim, BitIdenticalToScalarOnIscasSuite) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const Circuit circuit = spec.build();
    expect_bit_identity(circuit,
                        random_patterns(4, circuit.num_inputs(), 0xC0FFEE),
                        /*collapse=*/true);
  }
}

TEST(FaultSim, BitIdenticalToScalarOnC17Exhaustively) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  std::vector<std::vector<bool>> patterns;
  for (std::uint64_t a = 0; a < (1u << 5); ++a) {
    std::vector<bool> row(5);
    for (std::size_t i = 0; i < 5; ++i) row[i] = ((a >> i) & 1) != 0;
    patterns.push_back(std::move(row));
  }
  expect_bit_identity(c17, patterns, /*collapse=*/true);
  expect_bit_identity(c17, patterns, /*collapse=*/false);
}

TEST(FaultSim, BitIdenticalToScalarOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 10;
    options.num_gates = 80;
    options.num_outputs = 6;
    options.seed = seed;
    const Circuit circuit = gen::random_circuit(options);
    expect_bit_identity(circuit, random_patterns(6, 10, seed * 977),
                        /*collapse=*/true);
  }
}

// Gates wider than any small fixed buffer: the scalar reference evaluates
// them with the same gate rule as the kernel, at any fanin count.
TEST(FaultSim, ScalarReferenceHandlesWideGates) {
  for (const netlist::GateType type :
       {netlist::GateType::kAnd, netlist::GateType::kNor,
        netlist::GateType::kXor}) {
    for (const std::size_t width : {std::size_t{17}, std::size_t{40}}) {
      Circuit circuit("wide");
      std::vector<netlist::NodeId> inputs;
      for (std::size_t i = 0; i < width; ++i) {
        inputs.push_back(circuit.add_input());
      }
      circuit.add_output(circuit.add_gate(type, inputs), "y");
      std::vector<std::vector<bool>> patterns =
          random_patterns(8, width, 0x5CA1A + width);
      patterns.emplace_back(width, false);
      patterns.emplace_back(width, true);
      std::vector<bool> one_low(width, true);
      one_low[width / 2] = false;
      patterns.push_back(std::move(one_low));
      expect_bit_identity(circuit, patterns, /*collapse=*/true);
      expect_bit_identity(circuit, patterns, /*collapse=*/false);
    }
  }
}

TEST(FaultSim, DetectsInjectedFaultOnObservablePath) {
  // y = a AND b: output sa1 is detected by (0,0), masked on (1,1). Pattern
  // 0 of the word is (0,0), pattern 1 is (1,1).
  Circuit c("and2");
  const netlist::NodeId a = c.add_input("a");
  const netlist::NodeId b = c.add_input("b");
  const netlist::NodeId g = c.add_gate(netlist::GateType::kAnd, a, b);
  c.add_output(g);
  const FaultUniverse universe = FaultUniverse::build(c, /*collapse=*/false);
  const PatternFaultSim sim(c, universe, 1, every_class(universe));
  const std::size_t g_sa1 = universe.class_of(2 * g + 1);

  const std::vector<sim::Word> inputs{0b10, 0b10};
  const std::vector<sim::Word> expected{0b10};
  sim::Word seen = 0;
  for (const PatternFaultSim::Detection& hit :
       sim.detect_block(inputs, 2, expected).detections) {
    if (hit.cls == g_sa1) seen = hit.patterns.words[0];
  }
  EXPECT_EQ(seen, 0b01u);
  // The circuit's own response as the reference gives the same answer.
  seen = 0;
  for (const PatternFaultSim::Detection& hit :
       sim.detect_block(inputs, 2, {}).detections) {
    if (hit.cls == g_sa1) seen = hit.patterns.words[0];
  }
  EXPECT_EQ(seen, 0b01u);
}

// Passes are the normalized 64-class unit — one golden pass plus
// ceil(classes / 64) per pattern without dropping — and a partial word's
// padding patterns (here the all-zero assignment, which detects faults the
// real patterns miss) never report a detection.
TEST(FaultSim, PassCountingAndBlockMask) {
  const Circuit circuit = gen::find_benchmark("rca8").build();
  const FaultUniverse universe = FaultUniverse::build(circuit);
  const std::uint64_t blocks =
      (universe.num_classes() + sim::kWordBits - 1) / sim::kWordBits;
  CampaignOptions options;
  options.patterns = 100;
  const FaultCampaignResult result =
      run_campaign(circuit, nullptr, options, exec::Parallelism::serial());
  EXPECT_EQ(result.sim_passes, options.patterns * (1 + blocks));

  const PatternFaultSim sim(circuit, universe, 1, every_class(universe));
  std::vector<sim::Word> inputs(circuit.num_inputs(), 0);
  inputs[0] = 1;  // pattern 0 sets input 0; patterns 1..63 are all-zero
  const std::size_t zero_detects =
      sim.detect_block(inputs, sim::kWordBits, {}).detections.size();
  ASSERT_GT(zero_detects, 0u);
  for (const PatternFaultSim::Detection& hit :
       sim.detect_block(inputs, 1, {}).detections) {
    EXPECT_EQ(hit.patterns.words[0], 1u) << "class " << hit.cls;
    EXPECT_FALSE((hit.patterns & ~sim::Block<8>::low_mask(1)).any());
  }
}

// The acceptance pin: packing 64 faults per word must cut the sweeps a
// campaign performs by at least 32x against the one-fault-at-a-time flow
// (both flows pay one golden pass per pattern).
TEST(FaultSim, FaultPackingCutsPassesAtLeast32x) {
  const Circuit circuit = gen::find_benchmark("rca16").build();
  CampaignOptions options;
  options.patterns = 16;
  const FaultUniverse universe = FaultUniverse::build(circuit);
  ASSERT_GE(universe.num_classes(), 64u);

  const FaultCampaignResult result =
      run_campaign(circuit, nullptr, options, exec::Parallelism::serial());
  // Scalar flow: one golden pass plus one faulty pass per class, per
  // pattern.
  const std::uint64_t scalar_passes =
      options.patterns * (1 + universe.num_classes());
  EXPECT_GE(scalar_passes, 32 * result.sim_passes)
      << "bit-parallel passes " << result.sim_passes << ", scalar passes "
      << scalar_passes;
}

// Shards of 200 patterns span four words, the last one partial. Exhaustive
// patterns do not depend on the sharding, so every class's first detection
// must match the 64-pattern shards exactly, with dropping on or off, and
// passes must follow the 64-class formula: per pattern one golden pass plus
// ceil(active / 64), where under dropping a class leaves the active set
// after its first detection within its shard.
TEST(FaultSim, MultiWordShardsMatchOneWordShards) {
  gen::RandomCircuitOptions shape;
  shape.num_inputs = 10;
  shape.num_gates = 80;
  shape.num_outputs = 6;
  shape.seed = 41;
  const Circuit circuit = gen::random_circuit(shape);
  shape.seed = 42;
  const Circuit other = gen::random_circuit(shape);
  for (const Circuit* golden : {&circuit, &other}) {
    CampaignOptions one_word;
    one_word.exhaustive = true;
    CampaignOptions four_words = one_word;
    four_words.shard_patterns = 200;
    DetectionTable table;
    const FaultCampaignResult tabled = run_campaign(
        circuit, golden, four_words, exec::Parallelism::serial(), &table);
    const std::uint64_t classes = table.universe->num_classes();
    const std::uint64_t patterns = table.patterns.size();
    ASSERT_EQ(patterns, 1024u);
    for (const bool drop : {false, true}) {
      one_word.drop = drop;
      four_words.drop = drop;
      const FaultCampaignResult a = run_campaign(circuit, golden, one_word);
      const FaultCampaignResult b = run_campaign(circuit, golden, four_words);
      EXPECT_EQ(a.first_detect_pattern, b.first_detect_pattern);
      EXPECT_EQ(a.first_detect_output, b.first_detect_output);
      EXPECT_EQ(b.first_detect_pattern, tabled.first_detect_pattern);
      EXPECT_EQ(b.first_detect_output, tabled.first_detect_output);
      EXPECT_GT(b.detected, 0u);

      // The pass formula, from the table's detection bits.
      std::uint64_t want = 0;
      for (std::uint64_t begin = 0; begin < patterns; begin += 200) {
        const std::uint64_t end =
            std::min<std::uint64_t>(begin + 200, patterns);
        std::vector<bool> retired(classes, false);
        std::uint64_t active = classes;
        for (std::uint64_t p = begin; p < end; ++p) {
          want += 1 + (active + sim::kWordBits - 1) / sim::kWordBits;
          if (!drop) continue;
          for (std::uint64_t c = 0; c < classes; ++c) {
            if (!retired[c] &&
                ((table.detected[p][c / sim::kWordBits] >>
                  (c % sim::kWordBits)) & 1) != 0) {
              retired[c] = true;
              --active;
            }
          }
        }
      }
      EXPECT_EQ(b.sim_passes, want) << "drop " << drop;
      if (!drop) {
        EXPECT_EQ(want,
                  patterns * (1 + (classes + sim::kWordBits - 1) /
                                      sim::kWordBits));
        EXPECT_EQ(tabled.sim_passes, want);
      }
    }
  }
}

// detect_block takes 1 to 512 patterns. c17's 32 assignments tiled over
// every count must detect exactly what the one 32-pattern block detects at
// the same assignment, and nothing on padding; 0 and 513 are rejected.
TEST(FaultSim, DetectBlockAcceptsOneTo512Patterns) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const FaultUniverse universe = FaultUniverse::build(c17);
  const PatternFaultSim sim(c17, universe, 1, every_class(universe));
  const std::size_t num_inputs = c17.num_inputs();
  const auto packed = [&](int count) {
    std::vector<sim::Word> inputs(
        static_cast<std::size_t>(sim::words_for(count)) * num_inputs, 0);
    for (int p = 0; p < count; ++p) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        if (((p % 32) >> i) & 1) {
          inputs[static_cast<std::size_t>(p / sim::kWordBits) * num_inputs +
                 i] |= sim::Word{1} << (p % sim::kWordBits);
        }
      }
    }
    return inputs;
  };
  std::vector<sim::Word> exhaustive(universe.num_classes(), 0);
  for (const PatternFaultSim::Detection& hit :
       sim.detect_block(packed(32), 32, {}).detections) {
    exhaustive[hit.cls] = hit.patterns.words[0];
  }
  for (int count = 1; count <= sim::kBlockPatterns; ++count) {
    std::vector<sim::Block<sim::kBlockWords>> want(universe.num_classes());
    for (std::size_t c = 0; c < want.size(); ++c) {
      for (int p = 0; p < count; ++p) {
        if ((exhaustive[c] >> (p % 32)) & 1) {
          want[c].words[p / sim::kWordBits] |= sim::Word{1}
                                               << (p % sim::kWordBits);
        }
      }
    }
    std::vector<sim::Block<sim::kBlockWords>> got(universe.num_classes());
    for (const PatternFaultSim::Detection& hit :
         sim.detect_block(packed(count), count, {}).detections) {
      got[hit.cls] = hit.patterns;
    }
    ASSERT_EQ(got, want) << count << " patterns";
  }
  EXPECT_THROW((void)sim.detect_block(packed(1), 0, {}),
               std::invalid_argument);
  EXPECT_THROW((void)sim.detect_block(
                   std::vector<sim::Word>(9 * num_inputs, 0), 513, {}),
               std::invalid_argument);
}

// One kernel serves many threads at once: detect_block is const and keeps
// its scratch in the call. Blocks of every width, cut into segments of 7
// and 64, graded concurrently on a dedicated pool of 4 over c432 and over
// a 3-wire multiplexed c17, must each equal the same call made serially.
TEST(FaultSim, SharedKernelMatchesSerialCalls) {
  const Circuit c432 = gen::find_benchmark("c432").build();
  const Circuit c17 = gen::find_benchmark("c17").build();
  ft::MultiplexOptions mux;
  mux.bundle_width = 3;
  const Circuit bundled = ft::multiplex_transform(c17, mux).circuit;
  const std::vector<int> counts{1, 64, 100, 300, 512, 37, 200, 450, 129, 5};
  sim::Xoshiro256 rng(30);
  for (const auto& [circuit, width] :
       {std::pair{&c432, 1}, std::pair{&bundled, 3}}) {
    const FaultUniverse universe = FaultUniverse::build(*circuit);
    const PatternFaultSim sim(*circuit, universe, width, every_class(universe));
    const std::size_t num_inputs =
        circuit->num_inputs() / static_cast<std::size_t>(width);
    std::vector<std::vector<sim::Word>> inputs(counts.size());
    std::vector<PatternFaultSim::BlockResult> serial;
    const auto segment = [](std::size_t i) { return i % 2 == 0 ? 7 : 64; };
    std::size_t detections = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      inputs[i].resize(
          static_cast<std::size_t>(sim::words_for(counts[i])) * num_inputs);
      for (sim::Word& word : inputs[i]) word = rng.next();
      serial.push_back(sim.detect_block(inputs[i], counts[i], {}, segment(i)));
      detections += serial.back().detections.size();
    }
    EXPECT_GT(detections, 0u) << circuit->name();
    std::vector<PatternFaultSim::BlockResult> shared(counts.size());
    exec::for_each_index(
        counts.size(),
        [&](std::size_t i) {
          shared[i] = sim.detect_block(inputs[i], counts[i], {}, segment(i));
        },
        exec::Parallelism::dedicated(4));
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(shared[i], serial[i])
          << circuit->name() << ", " << counts[i] << " patterns";
    }
  }
}

// A campaign grades the active list in slices: slice_cuts(n) must cover
// it in ascending runs that never split a stem's classes. Grading each
// slice's positions on its own then finds exactly the full call's
// detections, in order, and flips each stem once overall, so the slices'
// events add up to the full call's. More slices than stems leave some
// empty.
TEST(FaultSim, SlicesPartitionTheActiveListAtStems) {
  const Circuit c432 = gen::find_benchmark("c432").build();
  const FaultUniverse universe = FaultUniverse::build(c432);
  const PatternFaultSim sim(c432, universe, 1, every_class(universe));
  sim::Xoshiro256 rng(34);
  std::vector<sim::Word> inputs(8 * c432.num_inputs());
  for (sim::Word& word : inputs) word = rng.next();
  const PatternFaultSim::BlockResult full =
      sim.detect_block(inputs, 512, {}, 64);
  ASSERT_GT(full.detections.size(), 0u);
  for (const std::size_t slices : {1u, 3u, 8u, 1000u}) {
    const std::vector<std::size_t> cuts = sim.slice_cuts(slices);
    ASSERT_EQ(cuts.size(), slices + 1);
    EXPECT_EQ(cuts.front(), 0u);
    EXPECT_EQ(cuts.back(), sim.num_active());
    EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
    // Each detection's class, position, bits and first hits, in order.
    using Found = std::tuple<std::uint32_t, std::uint32_t,
                             sim::Block<sim::kBlockWords>,
                             std::vector<PatternFaultSim::FirstHit>>;
    const auto found = [](const PatternFaultSim::BlockResult& block,
                          std::vector<Found>& out) {
      for (const PatternFaultSim::Detection& hit : block.detections) {
        const auto firsts = block.first_hits_of(hit);
        out.emplace_back(hit.cls, hit.position, hit.patterns,
                         std::vector(firsts.begin(), firsts.end()));
      }
    };
    std::vector<Found> expected;
    found(full, expected);
    std::vector<Found> sliced;
    std::uint64_t events = 0;
    for (std::size_t k = 0; k < slices; ++k) {
      std::vector<std::uint32_t> positions(cuts[k + 1] - cuts[k]);
      std::iota(positions.begin(), positions.end(),
                static_cast<std::uint32_t>(cuts[k]));
      const PatternFaultSim::BlockResult part =
          sim.detect_block(inputs, 512, {}, 64, positions);
      found(part, sliced);
      events += part.events;
    }
    EXPECT_EQ(sliced, expected) << slices << " slices";
    EXPECT_EQ(events, full.events) << slices;
  }
  EXPECT_THROW((void)sim.slice_cuts(0), std::invalid_argument);
}

TEST(FaultSim, RejectsMalformedBundles) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const FaultUniverse universe = FaultUniverse::build(c17);
  const std::vector<std::uint32_t> all = every_class(universe);
  EXPECT_THROW(PatternFaultSim(c17, universe, 2, all), std::invalid_argument);
  EXPECT_THROW(PatternFaultSim(c17, universe, 3, all), std::invalid_argument);
  EXPECT_THROW(ScalarFaultSim(c17, universe, -1), std::invalid_argument);
  const PatternFaultSim sim(c17, universe, 1, all);
  const std::vector<sim::Word> five(5, 0);
  const std::vector<sim::Word> two(2, 0);
  EXPECT_THROW((void)sim.detect_block(std::vector<sim::Word>(1, 0), 1, two),
               std::invalid_argument);
  EXPECT_THROW((void)sim.detect_block(five, 1, std::vector<sim::Word>(1, 0)),
               std::invalid_argument);
  // A block of 65 patterns spans two words per signal.
  EXPECT_THROW((void)sim.detect_block(five, 65, two), std::invalid_argument);
  EXPECT_THROW((void)sim.detect_block(five, 1, two, 0), std::invalid_argument);
  // Positions must ascend strictly and stay inside the active list.
  for (const std::vector<std::uint32_t>& positions :
       {std::vector<std::uint32_t>{2, 1}, std::vector<std::uint32_t>{3, 3},
        std::vector<std::uint32_t>{
            static_cast<std::uint32_t>(sim.num_active())}}) {
    EXPECT_THROW((void)sim.detect_block(five, 1, two, 1, positions),
                 std::invalid_argument);
  }
  const std::vector<std::uint32_t> outside{
      static_cast<std::uint32_t>(universe.num_classes())};
  EXPECT_THROW(PatternFaultSim(c17, universe, 1, outside),
               std::invalid_argument);
}

}  // namespace
}  // namespace enb::fault
