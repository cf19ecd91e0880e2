// netlist::FlatCircuit mirrors the Circuit it was built from: the CSR
// fanins are Circuit::fanins, the fanouts are their exact inverse, and the
// input slots are Circuit::input_index.
#include "netlist/flat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"

namespace enb::netlist {
namespace {

void expect_mirrors(const Circuit& circuit) {
  const FlatCircuit flat(circuit);
  ASSERT_EQ(flat.node_count(), circuit.node_count());
  // (driver, consumer) edges with multiplicity, from each side.
  std::map<std::pair<NodeId, NodeId>, int> edges;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    EXPECT_EQ(flat.type(id), circuit.type(id)) << circuit.name() << " " << id;
    EXPECT_EQ(flat.input_slot(id), circuit.input_index(id))
        << circuit.name() << " " << id;
    const auto want = circuit.fanins(id);
    const auto got = flat.fanins(id);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << circuit.name() << " node " << id;
    for (const NodeId f : want) ++edges[{f, id}];
  }
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto fanouts = flat.fanouts(id);
    EXPECT_TRUE(std::is_sorted(fanouts.begin(), fanouts.end()));
    for (const NodeId consumer : fanouts) {
      EXPECT_GT(consumer, id);
      --edges[{id, consumer}];
    }
  }
  for (const auto& [edge, count] : edges) {
    EXPECT_EQ(count, 0) << circuit.name() << " edge " << edge.first << "->"
                        << edge.second;
  }
}

TEST(FlatCircuit, MirrorsEverySuiteCircuit) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expect_mirrors(spec.build());
  }
}

TEST(FlatCircuit, MirrorsRandomDags) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 6;
    options.num_gates = 120;
    options.seed = seed;
    expect_mirrors(gen::random_circuit(options));
  }
}

TEST(FlatCircuit, RepeatedFaninsLateInputsAndDanglingNodes) {
  Circuit c("edges");
  const NodeId a = c.add_input("a");
  const NodeId k = c.add_const(true);
  const NodeId g = c.add_gate(GateType::kAnd, {a, a, k});
  const NodeId b = c.add_input("b");  // an input after a gate
  c.add_gate(GateType::kXor, g, b);   // dangling
  c.add_output(g);
  c.add_output(g);
  expect_mirrors(c);
  const FlatCircuit flat(c);
  EXPECT_EQ(flat.input_slot(b), 1);
  EXPECT_EQ(flat.input_slot(k), -1);
  EXPECT_EQ(flat.fanouts(a).size(), 2u);
  EXPECT_TRUE(flat.fanouts(4).empty());
  EXPECT_TRUE(flat.fanins(a).empty());
}

}  // namespace
}  // namespace enb::netlist
