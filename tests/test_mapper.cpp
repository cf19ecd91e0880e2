#include "synth/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd_analysis.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "gen/parity.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "sim/exhaustive.hpp"
#include "util/sha256.hpp"

namespace enb::synth {
namespace {

using netlist::GateType;
using netlist::NodeId;

// Mapping feeds every profile, campaign and served digest, so the mapped
// netlists themselves are pinned: the SHA-256 of write_bench_string of each
// standard and scale suite circuit mapped at k = 2, 3 and 4. A change that
// moves one byte of a mapped netlist fails here first.
constexpr std::array<int, 3> kPinnedFanins = {2, 3, 4};

struct MappedDigests {
  const char* name;
  std::array<const char*, 3> sha256;  // at kPinnedFanins
};

const MappedDigests kMappedTable[] = {
    {"c17",
     {"7976ce803c38f278121fd1a62a776210098adc60cd05cd522bedfd236b7e35e5",
      "7976ce803c38f278121fd1a62a776210098adc60cd05cd522bedfd236b7e35e5",
      "7976ce803c38f278121fd1a62a776210098adc60cd05cd522bedfd236b7e35e5"}},
    {"parity8",
     {"c6c92b6a0daf0cd5edd8ca09f311f134ef859cff67179b9cc8741e86acb4a531",
      "c6c92b6a0daf0cd5edd8ca09f311f134ef859cff67179b9cc8741e86acb4a531",
      "c6c92b6a0daf0cd5edd8ca09f311f134ef859cff67179b9cc8741e86acb4a531"}},
    {"parity16",
     {"f4c80260facae7dfc42fc301f76bdd20f249558e5ae9f02976c1b8c8f4530fb6",
      "f4c80260facae7dfc42fc301f76bdd20f249558e5ae9f02976c1b8c8f4530fb6",
      "f4c80260facae7dfc42fc301f76bdd20f249558e5ae9f02976c1b8c8f4530fb6"}},
    {"rca8",
     {"b5ed1273ebd02d3336f92b3b268ab594e73a5d6c20c56cceb571e0f6dda68149",
      "b5ed1273ebd02d3336f92b3b268ab594e73a5d6c20c56cceb571e0f6dda68149",
      "b5ed1273ebd02d3336f92b3b268ab594e73a5d6c20c56cceb571e0f6dda68149"}},
    {"rca16",
     {"0c766897d4e2dc2bcc30fa16b83bfc5f264a844663d3d5e66baf8e28ee3b9b99",
      "0c766897d4e2dc2bcc30fa16b83bfc5f264a844663d3d5e66baf8e28ee3b9b99",
      "0c766897d4e2dc2bcc30fa16b83bfc5f264a844663d3d5e66baf8e28ee3b9b99"}},
    {"rca32",
     {"a9782bf5e95ece29331761c3a8174f052db47893b6aee9d53b5d5c02fe12459f",
      "a9782bf5e95ece29331761c3a8174f052db47893b6aee9d53b5d5c02fe12459f",
      "a9782bf5e95ece29331761c3a8174f052db47893b6aee9d53b5d5c02fe12459f"}},
    {"cla16",
     {"7faeac9be1018e98293144898dda2bf6e0ec54a3a37b225c638d975180b4187e",
      "7d20419565b36bea725094e30523622c79836a4db88e8fa9533b670171c7849e",
      "4c8610a914d579017e5d7702128ca6092bdf7f0d3a472882af7540a2cfd876c8"}},
    {"csel16",
     {"32f4f71186e0a03848177d4b605702a630b71efcaafd81735f9e8e0486df3baf",
      "32f4f71186e0a03848177d4b605702a630b71efcaafd81735f9e8e0486df3baf",
      "32f4f71186e0a03848177d4b605702a630b71efcaafd81735f9e8e0486df3baf"}},
    {"mult4",
     {"f766c2e365869eaae692a8c25e23bcfde5b41953a4903955e2c2916f3ca65df6",
      "f766c2e365869eaae692a8c25e23bcfde5b41953a4903955e2c2916f3ca65df6",
      "f766c2e365869eaae692a8c25e23bcfde5b41953a4903955e2c2916f3ca65df6"}},
    {"mult8",
     {"02b935873cd9dc2062b3f1f9f064a819a6ba936a46ab26e6e3aa55271d7f427f",
      "02b935873cd9dc2062b3f1f9f064a819a6ba936a46ab26e6e3aa55271d7f427f",
      "02b935873cd9dc2062b3f1f9f064a819a6ba936a46ab26e6e3aa55271d7f427f"}},
    {"cmp16",
     {"97ddefcc688aa16432087752d475c2bce11eb6a94e7a7111e0cf6a903cb2f8af",
      "97ddefcc688aa16432087752d475c2bce11eb6a94e7a7111e0cf6a903cb2f8af",
      "97ddefcc688aa16432087752d475c2bce11eb6a94e7a7111e0cf6a903cb2f8af"}},
    {"alu8",
     {"f17a271d0ccf3eaa04276d36e189fd33f4b1be7c35bc7f3c7b97d8b030b7fc9c",
      "36fc67cbdb5b0b5a79ec02705ef3bc62bc03b20307e375b26ca38eba2e26c71e",
      "483463261b8c0fcf2d6864bbfdadf49da9ab080e2681e2d6b526e2f7ad8cdb23"}},
    {"c432",
     {"624588d1495ce6aeec5a92923378cc9d88b55ebec5fd5147460ef8f88a4cd501",
      "7fca30194034d1174e133f8ec18c4e448df6c4c0077c510bfae39ffc0975d01a",
      "f3a4f91afbde58780a073762da078e74b6bd3ceed7cc409f6c92e11895d5ef3b"}},
    {"rca256",
     {"5772b711e1299473062f79b823aeb41e8ec57c52bfc2579cf9d9a78aa33aa4ad",
      "5772b711e1299473062f79b823aeb41e8ec57c52bfc2579cf9d9a78aa33aa4ad",
      "5772b711e1299473062f79b823aeb41e8ec57c52bfc2579cf9d9a78aa33aa4ad"}},
    {"csel64",
     {"87be2736547db4b7bfe08ac569f32c0315917bd70e01a03ea039bc85c3639723",
      "87be2736547db4b7bfe08ac569f32c0315917bd70e01a03ea039bc85c3639723",
      "87be2736547db4b7bfe08ac569f32c0315917bd70e01a03ea039bc85c3639723"}},
    {"mult16",
     {"67cb208924d1505fdff5dc7e280bb58390ab7445cf7dc65222e8fbfe09387750",
      "67cb208924d1505fdff5dc7e280bb58390ab7445cf7dc65222e8fbfe09387750",
      "67cb208924d1505fdff5dc7e280bb58390ab7445cf7dc65222e8fbfe09387750"}},
    {"alu64",
     {"2690bc5d4c0fe24ebc47dd6d94fa205c9761d3b5c2d5e47084079b2d579f8a26",
      "90339039829de523a7c93e31be6d9e914816a7467c81ab7a684e7a0d7fa3fea9",
      "bacda9862b51ba2f047942a106e1a667854c830df68bea87ed8c7c881480f065"}},
};

std::string mapped_digest(const netlist::Circuit& circuit, int max_fanin) {
  return util::sha256_hex(
      netlist::write_bench_string(map_to_library(circuit, max_fanin).circuit));
}

TEST(Mapper, DigestTableCoversStandardAndScaleSuites) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expected.push_back(spec.name);
  }
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const MappedDigests& entry : kMappedTable) pinned.push_back(entry.name);
  EXPECT_EQ(pinned, expected);
}

TEST(Mapper, MappedNetlistDigestsMatchTable) {
  for (const MappedDigests& entry : kMappedTable) {
    const netlist::Circuit circuit = gen::find_benchmark(entry.name).build();
    for (std::size_t i = 0; i < kPinnedFanins.size(); ++i) {
      EXPECT_EQ(mapped_digest(circuit, kPinnedFanins[i]), entry.sha256[i])
          << entry.name << " at k=" << kPinnedFanins[i];
    }
  }
}

TEST(Mapper, PaperTargetLibraryOnCla) {
  // The paper's setting: generic library, max fanin 3.
  const auto cla = gen::carry_lookahead_adder(16);
  const MapResult result = map_to_library(cla, 3);
  EXPECT_LE(result.after.max_fanin, 3);
  EXPECT_GT(result.after.num_gates, 0u);
  // 33 inputs: verification falls back to random vectors.
  EXPECT_FALSE(result.verified_exact);
  EXPECT_TRUE(sim::random_equivalent(cla, result.circuit, 256, 42));
}

TEST(Mapper, ExhaustiveVerificationOnSmallCircuits) {
  const auto c17 = gen::c17();
  const MapResult result = map_to_library(c17, 3);
  EXPECT_TRUE(result.verified_exact);
  EXPECT_TRUE(sim::exhaustive_equivalent(c17, result.circuit));
}

TEST(Mapper, StatsBeforeAfterPopulated) {
  const auto par = gen::parity_tree(8, 4);  // 4-input XORs need narrowing
  const MapResult result = map_to_library(par, 2);
  EXPECT_EQ(result.before.num_inputs, 8u);
  EXPECT_EQ(result.after.num_inputs, 8u);
  EXPECT_LE(result.after.max_fanin, 2);
  EXPECT_GE(result.after.num_gates, result.before.num_gates);
}

TEST(Mapper, MultiplierMapsAndStaysEquivalent) {
  const auto mult = gen::array_multiplier(4);
  const MapResult result = map_to_library(mult, 3);
  EXPECT_TRUE(bdd::bdd_equivalent(mult, result.circuit));
}

TEST(Mapper, ShannonParityMapsToTwoInput) {
  const auto par = gen::parity_shannon(6);
  const MapResult result = map_to_library(par, 2);
  EXPECT_TRUE(result.verified_exact);
  EXPECT_LE(result.after.max_fanin, 2);
}

// One gate of each structural type over three inputs a, b, c: NAND3, XOR,
// XNOR, NOR3, MAJ and NOT, every one an output so sweep and strash keep it.
netlist::Circuit every_gate_type() {
  netlist::Circuit c("every_type");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId d = c.add_input("c");
  c.add_output(c.add_gate(GateType::kNand, std::vector<NodeId>{a, b, d}));
  c.add_output(c.add_gate(GateType::kXor, a, b));
  c.add_output(c.add_gate(GateType::kXnor, b, d));
  c.add_output(c.add_gate(GateType::kNor, std::vector<NodeId>{a, b, d}));
  c.add_output(c.add_gate(GateType::kMaj, a, b, d));
  c.add_output(c.add_gate(GateType::kNot, a));
  return c;
}

TEST(Mapper, GenericAllowsStructuralTypes) {
  // At k = 3 the generic library keeps every structural type as written.
  const MapResult result = map_to_library(every_gate_type(), 3);
  EXPECT_EQ(result.after.max_fanin, 3);
  for (const GateType type : {GateType::kNand, GateType::kXor,
                              GateType::kXnor, GateType::kNor, GateType::kMaj,
                              GateType::kNot}) {
    EXPECT_EQ(result.after.gate_histogram.count(type), 1u) << to_string(type);
  }
}

TEST(Mapper, GenericTwoInputHasNoMaj) {
  // MAJ is a 3-input gate: at k = 2 it expands into AND/OR logic, while the
  // other types only narrow.
  const MapResult result = map_to_library(every_gate_type(), 2);
  EXPECT_LE(result.after.max_fanin, 2);
  EXPECT_EQ(result.after.gate_histogram.count(GateType::kMaj), 0u);
  EXPECT_EQ(result.after.gate_histogram.count(GateType::kXnor), 1u);
  EXPECT_TRUE(result.verified_exact);
}

TEST(Mapper, ArityRangeInteractsWithAllows) {
  // At k = 4 a 4-input OR stays whole, a 5-input one splits, and fixed-arity
  // gates (NOT, MAJ) keep their arity.
  netlist::Circuit c("arity");
  std::vector<NodeId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(GateType::kOr, std::vector<NodeId>(
                                             ins.begin(), ins.begin() + 4)));
  c.add_output(c.add_gate(GateType::kNor, ins));
  c.add_output(c.add_gate(GateType::kMaj, ins[0], ins[2], ins[4]));
  c.add_output(c.add_gate(GateType::kNot, ins[1]));
  const MapResult result = map_to_library(c, 4);
  EXPECT_EQ(result.after.max_fanin, 4);
  for (NodeId id = 0; id < result.circuit.node_count(); ++id) {
    const GateType type = result.circuit.type(id);
    if (!netlist::counts_as_gate(type)) continue;
    const int fanin = static_cast<int>(result.circuit.fanins(id).size());
    const auto range = netlist::arity_range(type);
    EXPECT_GE(fanin, range.min) << to_string(type);
    EXPECT_LE(fanin, std::min(range.max, 4)) << to_string(type);
  }
  EXPECT_EQ(result.after.gate_histogram.count(GateType::kMaj), 1u);
}

TEST(Mapper, RejectsTinyFanin) {
  EXPECT_THROW((void)map_to_library(gen::c17(), 1), std::invalid_argument);
  EXPECT_THROW((void)map_to_library(gen::c17(), 0), std::invalid_argument);
}

// ---- check_mapping: structural proof first, simulation for open outputs --

TEST(Mapper, AdderAndMultiplierMappingsAreProvedStructurally) {
  for (const char* name : {"mult16", "rca256"}) {
    const netlist::Circuit circuit = gen::find_benchmark(name).build();
    for (const int k : {2, 3}) {
      const MapResult result = map_to_library(circuit, k);
      EXPECT_EQ(result.outputs_proved, circuit.num_outputs())
          << name << " at k=" << k;
      EXPECT_FALSE(result.verified_exact) << name;
    }
  }
}

TEST(Mapper, OpenOutputsStillPassThroughSimulation) {
  // Plain hashing leaves every c432 output and one alu8 output open; the
  // mapping is then simulated (both have more than 14 inputs: sampled).
  struct Case {
    const char* name;
    std::size_t proved;
    std::size_t outputs;
  };
  for (const Case& c : {Case{"c432", 0, 7}, Case{"alu8", 9, 10}}) {
    const netlist::Circuit circuit = gen::find_benchmark(c.name).build();
    const MapResult result = map_to_library(circuit, 3);
    EXPECT_EQ(circuit.num_outputs(), c.outputs) << c.name;
    EXPECT_EQ(result.outputs_proved, c.proved) << c.name;
    EXPECT_EQ(check_mapping(circuit, result.circuit), c.proved) << c.name;
  }
}

// A copy of `circuit` in which fanin 0 of the gate driving output `output`
// reads `to` instead: a hand-corrupted mapping.
netlist::Circuit with_fanin_moved(const netlist::Circuit& circuit,
                                  std::size_t output, NodeId to) {
  const NodeId gate = circuit.outputs()[output];
  netlist::Circuit copy(circuit.name());
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const GateType type = circuit.type(id);
    if (type == GateType::kInput) {
      copy.add_input(circuit.node_name(id));
    } else if (type == GateType::kConst0 || type == GateType::kConst1) {
      copy.add_const(type == GateType::kConst1);
    } else {
      std::vector<NodeId> fanins(circuit.fanins(id).begin(),
                                 circuit.fanins(id).end());
      if (id == gate) fanins[0] = to;
      copy.add_gate(type, std::move(fanins));
    }
  }
  for (std::size_t o = 0; o < circuit.num_outputs(); ++o) {
    copy.add_output(circuit.outputs()[o], circuit.output_name(o));
  }
  return copy;
}

TEST(Mapper, CorruptedMappingThrowsOnTheExhaustiveRoute) {
  const netlist::Circuit c17 = gen::c17();  // 5 inputs
  const netlist::Circuit mapped = map_to_library(c17, 3).circuit;
  const netlist::Circuit corrupted =
      with_fanin_moved(mapped, 0, mapped.inputs()[4]);
  ASSERT_FALSE(sim::exhaustive_equivalent(mapped, corrupted));
  EXPECT_EQ(check_mapping(c17, mapped), c17.num_outputs());
  EXPECT_THROW((void)check_mapping(c17, corrupted), std::runtime_error);
}

TEST(Mapper, CorruptedMappingThrowsOnTheSampledRoute) {
  const netlist::Circuit mult16 = gen::array_multiplier(16);  // 32 inputs
  const netlist::Circuit mapped = map_to_library(mult16, 3).circuit;
  const netlist::Circuit corrupted =
      with_fanin_moved(mapped, 16, mapped.inputs()[0]);
  ASSERT_FALSE(sim::random_equivalent(mapped, corrupted, 64, 7));
  EXPECT_EQ(check_mapping(mult16, mapped), mult16.num_outputs());
  EXPECT_THROW((void)check_mapping(mult16, corrupted), std::runtime_error);
}

TEST(Mapper, CheckSpanCountsProvedAndOpenOutputs) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.enable();
  (void)map_to_library(gen::array_multiplier(16), 3);
  (void)map_to_library(gen::find_benchmark("alu8").build(), 3);
  recorder.disable();
  std::ostringstream trace;
  recorder.write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("map-to-library"), std::string::npos);
  EXPECT_NE(trace.str().find("proved=32 open=0"), std::string::npos);
  EXPECT_NE(trace.str().find("proved=9 open=1"), std::string::npos);
}

}  // namespace
}  // namespace enb::synth
