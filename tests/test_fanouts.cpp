// netlist::Fanouts is the exact inverse of the Circuit it was built from:
// every (driver, consumer) fanin edge appears once per listing, each
// consumer list ascends, and every consumer has a larger id than its
// driver.
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

void expect_inverts(const Circuit& circuit) {
  const Fanouts fanouts(circuit);
  // (driver, consumer) edges with multiplicity, from each side.
  std::map<std::pair<NodeId, NodeId>, int> edges;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    for (const NodeId f : circuit.fanins(id)) ++edges[{f, id}];
  }
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto consumers = fanouts.of(id);
    EXPECT_TRUE(std::is_sorted(consumers.begin(), consumers.end()));
    for (const NodeId consumer : consumers) {
      EXPECT_GT(consumer, id);
      --edges[{id, consumer}];
    }
  }
  for (const auto& [edge, count] : edges) {
    EXPECT_EQ(count, 0) << circuit.name() << " edge " << edge.first << "->"
                        << edge.second;
  }
}

TEST(Fanouts, InvertEverySuiteCircuit) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expect_inverts(spec.build());
  }
}

TEST(Fanouts, InvertRandomDags) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 6;
    options.num_gates = 120;
    options.seed = seed;
    expect_inverts(gen::random_circuit(options));
  }
}

TEST(Fanouts, RepeatedFaninsLateInputsAndDanglingNodes) {
  Circuit c("edges");
  const NodeId a = c.add_input("a");
  const NodeId k = c.add_const(true);
  const NodeId g = c.add_gate(GateType::kAnd, {a, a, k});
  const NodeId b = c.add_input("b");  // an input after a gate
  c.add_gate(GateType::kXor, g, b);   // dangling
  c.add_output(g);
  c.add_output(g);
  expect_inverts(c);
  const Fanouts fanouts(c);
  EXPECT_EQ(c.input_index(b), 1);
  EXPECT_EQ(c.input_index(k), -1);
  EXPECT_EQ(fanouts.of(a).size(), 2u);
  EXPECT_TRUE(fanouts.of(4).empty());
  EXPECT_TRUE(c.fanins(a).empty());
}

}  // namespace
}  // namespace enb::netlist
