// Soundness of StructuralHasher's canonical ids: whenever two nodes get the
// same id, they compute the same function. The check is exhaustive — every
// node's full truth table over at most 14 inputs — and runs over circuits
// hashed into one shared hasher together with their synthesis images
// (sweep, strash, reduce_fanin and map_to_library at K = 2 and 3), since
// that is how CEC and the mapper use ids: across circuits. The first node
// to receive an id is its representative; the constants are seeded with
// their own tables. Every rewrite rule that collapses a gate onto one of
// its operands, onto a constant or onto an earlier class is therefore
// compared against the table of what it collapsed to.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "netlist/circuit.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"
#include "synth/decompose.hpp"
#include "synth/mapper.hpp"
#include "synth/strash.hpp"
#include "synth/structural_hasher.hpp"
#include "synth/sweep.hpp"

namespace enb::synth {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using sim::Word;

constexpr int kMaxInputs = 14;

using Table = std::vector<Word>;

// tables[node] = the node's value under every input assignment, 64
// assignments per word, invalid lanes cleared.
std::vector<Table> node_tables(const Circuit& circuit) {
  const int n = static_cast<int>(circuit.num_inputs());
  const std::uint64_t blocks = sim::exhaustive_block_count(n);
  const Word valid = sim::exhaustive_valid_mask(n);
  std::vector<Table> tables(circuit.node_count(), Table(blocks));
  sim::LogicSim logic(circuit);
  std::vector<Word> inputs(circuit.num_inputs());
  for (std::uint64_t b = 0; b < blocks; ++b) {
    sim::fill_exhaustive_block(n, b, inputs);
    logic.eval(inputs);
    for (NodeId id = 0; id < circuit.node_count(); ++id) {
      tables[id][b] = logic.value(id) & valid;
    }
  }
  return tables;
}

// Hashes every circuit into one hasher and checks each node's truth table
// against its id's representative. Returns how many nodes shared an id
// with an earlier node, so callers can insist the rules were exercised.
std::size_t expect_equal_ids_mean_equal_functions(
    const std::vector<Circuit>& circuits) {
  const int n = static_cast<int>(circuits.front().num_inputs());
  StructuralHasher hasher(circuits.front().num_inputs());
  const std::uint64_t blocks = sim::exhaustive_block_count(n);
  std::vector<Table> representative{
      Table(blocks, 0), Table(blocks, sim::exhaustive_valid_mask(n))};
  std::vector<bool> seen{true, true};
  std::size_t shared = 0;
  for (const Circuit& circuit : circuits) {
    const std::vector<std::uint32_t> ids = hasher.hash_circuit(circuit);
    const std::vector<Table> tables = node_tables(circuit);
    representative.resize(hasher.num_values());
    seen.resize(hasher.num_values(), false);
    for (NodeId id = 0; id < circuit.node_count(); ++id) {
      const std::uint32_t value = ids[id];
      if (!seen[value]) {
        seen[value] = true;
        representative[value] = tables[id];
        continue;
      }
      ++shared;
      EXPECT_EQ(tables[id], representative[value])
          << circuit.name() << " node " << id << " ("
          << netlist::to_string(circuit.type(id)) << ") shares id "
          << value << " with a node of a different function";
    }
  }
  return shared;
}

// The circuit followed by its synthesis images, all on the same inputs.
std::vector<Circuit> with_images(const Circuit& circuit) {
  std::vector<Circuit> all{circuit, sweep(circuit), strash(circuit)};
  for (const int k : {2, 3}) {
    all.push_back(reduce_fanin(circuit, k));
    all.push_back(map_to_library(circuit, k).circuit);
  }
  return all;
}

// Every gate type, with operands drawn so that the hasher's rules fire:
// repeated operands (AND(x, x), XOR(x, x), MAJ(r, r, x)), an operand next
// to its own complement, constants and buffers. Several outputs keep most
// of the DAG alive through sweep.
Circuit random_dag(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  Circuit c("hash_dag_s" + std::to_string(seed));
  std::vector<NodeId> pool;
  const std::uint64_t inputs = 1 + rng.next_below(kMaxInputs);
  for (std::uint64_t i = 0; i < inputs; ++i) {
    pool.push_back(c.add_input("x" + std::to_string(i)));
  }
  constexpr GateType kTypes[] = {
      GateType::kBuf, GateType::kNot,  GateType::kAnd, GateType::kNand,
      GateType::kOr,  GateType::kNor,  GateType::kXor, GateType::kXnor,
      GateType::kMaj, GateType::kConst0, GateType::kConst1};
  const int gates = 8 + static_cast<int>(rng.next_below(72));
  for (int g = 0; g < gates; ++g) {
    const GateType type = kTypes[rng.next_below(std::size(kTypes))];
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      pool.push_back(c.add_const(type == GateType::kConst1));
      continue;
    }
    int arity = 1 + static_cast<int>(rng.next_below(4));
    if (type == GateType::kBuf || type == GateType::kNot) arity = 1;
    if (type == GateType::kMaj) arity = 3;
    std::vector<NodeId> fanins;
    for (int f = 0; f < arity; ++f) {
      const std::uint64_t pick = rng.next_below(8);
      if (f > 0 && pick == 0) {
        fanins.push_back(fanins[rng.next_below(fanins.size())]);
      } else if (f > 0 && pick == 1) {
        const NodeId base = fanins[rng.next_below(fanins.size())];
        pool.push_back(c.add_gate(GateType::kNot, base));
        fanins.push_back(pool.back());
      } else {
        fanins.push_back(pool[rng.next_below(pool.size())]);
      }
    }
    pool.push_back(c.add_gate(type, std::move(fanins)));
  }
  const std::uint64_t outputs = 1 + rng.next_below(8);
  for (std::uint64_t o = 0; o < outputs; ++o) {
    c.add_output(pool[pool.size() - 1 - rng.next_below(pool.size() / 2)],
                 "y" + std::to_string(o));
  }
  return c;
}

TEST(StructuralHasherSoundness, RandomDagsAndTheirImages) {
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    shared +=
        expect_equal_ids_mean_equal_functions(with_images(random_dag(seed)));
  }
  EXPECT_GT(shared, 0u);
}

TEST(StructuralHasherSoundness, GeneratorDagsAndTheirImages) {
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    gen::RandomCircuitOptions options;
    options.seed = seed;
    options.num_inputs = 2 + static_cast<int>(seed % 13);
    options.num_gates = 16 + static_cast<int>(seed % 5) * 16;
    options.num_outputs = 6;
    options.max_fanin = 2 + static_cast<int>(seed % 3);
    options.locality = static_cast<double>(seed % 4) / 4.0;
    shared += expect_equal_ids_mean_equal_functions(
        with_images(gen::random_circuit(options)));
  }
  EXPECT_GT(shared, 0u);
}

TEST(StructuralHasherSoundness, SmallSuiteCircuitsAndTheirImages) {
  std::vector<gen::BenchmarkSpec> specs = gen::standard_suite();
  for (auto& spec : gen::scale_suite()) specs.push_back(std::move(spec));
  std::size_t circuits = 0;
  for (const gen::BenchmarkSpec& spec : specs) {
    const Circuit circuit = spec.build();
    if (circuit.num_inputs() > kMaxInputs) continue;
    ++circuits;
    EXPECT_GT(expect_equal_ids_mean_equal_functions(with_images(circuit)), 0u)
        << spec.name;
  }
  EXPECT_GE(circuits, 3u);  // c17, parity8, mult4
}

}  // namespace
}  // namespace enb::synth
