// Differential property tests for the static-reasoning engines against
// straightforward reference implementations kept here, in the test.
//
// Constants: analyze_constants probes on one shared value array with an undo
// trail. The reference below is the plain formulation it replaced — every
// probe seeds two fresh copies of the proved array, and branch agreement
// scans every node. Every ConstantFacts field must match over random DAGs
// with constants, both generator suites, every enumerate_candidates variant
// of c17, c432 and mult8, and deep NOT and AND/OR chains.
//
// CEC: check_equivalence's stage 2 hashes both circuits without constants
// first and folds proved constants in only when an output stays open. The
// reference runs the constants-first stage 2 through the public
// analyze_constants and StructuralHasher. Verdicts must match exactly; the
// structural count may only grow, and whatever it gains the BDD count loses.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "analysis/static_reason.hpp"
#include "bdd/bdd.hpp"
#include "bdd/circuit_to_bdd.hpp"
#include "exec/stream.hpp"
#include "ft/nmr.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "netlist/circuit.hpp"
#include "netlist/flat.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"
#include "synth/strash.hpp"
#include "synth/structural_hasher.hpp"
#include "synth/sweep.hpp"

namespace enb::analysis {
namespace {

using netlist::Circuit;
using netlist::GateOp;
using netlist::GateType;
using netlist::kInvalidNode;
using netlist::NodeId;
using synth::LogicValue;
using synth::StructuralHasher;
using synth::to_logic;

// ---- reference constant prover ---------------------------------------------

LogicValue reference_eval(const Circuit& circuit, NodeId id,
                          const std::vector<LogicValue>& val) {
  const GateType type = circuit.type(id);
  const GateOp op = netlist::gate_op(type);
  const auto fanins = circuit.fanins(id);
  LogicValue out = LogicValue::kUnknown;
  switch (op) {
    case GateOp::kInput:
      return val[id];
    case GateOp::kConst:
      out = LogicValue::kZero;
      break;
    case GateOp::kBuf:
      out = val[fanins[0]];
      break;
    case GateOp::kAnd:
    case GateOp::kOr: {
      const LogicValue control = to_logic(netlist::controlling_value(op));
      out = negate(control);
      for (const NodeId f : fanins) {
        if (val[f] == control) {
          out = control;
          break;
        }
        if (val[f] == LogicValue::kUnknown) out = LogicValue::kUnknown;
      }
      break;
    }
    case GateOp::kXor: {
      bool parity = false;
      for (const NodeId f : fanins) {
        if (val[f] == LogicValue::kUnknown) return LogicValue::kUnknown;
        parity ^= val[f] == LogicValue::kOne;
      }
      out = to_logic(parity);
      break;
    }
    case GateOp::kMaj: {
      int ones = 0;
      int zeros = 0;
      for (const NodeId f : fanins) {
        ones += val[f] == LogicValue::kOne;
        zeros += val[f] == LogicValue::kZero;
      }
      if (ones >= 2) out = LogicValue::kOne;
      if (zeros >= 2) out = LogicValue::kZero;
      break;
    }
  }
  return netlist::is_inverted(type) ? negate(out) : out;
}

// One private partial assignment per environment, propagated FIFO forward
// (partial evaluation) and backward (controlling-value rules).
class ReferenceEnv {
 public:
  ReferenceEnv(const Circuit& circuit, const netlist::Fanouts& fanouts,
               std::vector<LogicValue> seed)
      : circuit_(circuit), fanouts_(fanouts), val_(std::move(seed)) {}

  [[nodiscard]] const std::vector<LogicValue>& values() const { return val_; }

  bool assume(NodeId id, LogicValue value) {
    assign(id, value);
    while (consistent_ && !queue_.empty()) {
      const NodeId n = queue_.front();
      queue_.pop_front();
      backward(n);
      for (const NodeId g : fanouts_.of(n)) {
        const LogicValue forced = reference_eval(circuit_, g, val_);
        if (forced != LogicValue::kUnknown) assign(g, forced);
        if (val_[g] != LogicValue::kUnknown) backward(g);
        if (!consistent_) break;
      }
    }
    return consistent_;
  }

 private:
  void assign(NodeId id, LogicValue value) {
    if (value == LogicValue::kUnknown || !consistent_) return;
    if (val_[id] != LogicValue::kUnknown) {
      if (val_[id] != value) consistent_ = false;
      return;
    }
    val_[id] = value;
    queue_.push_back(id);
  }

  void backward(NodeId id) {
    if (val_[id] == LogicValue::kUnknown) return;
    const GateType type = circuit_.type(id);
    const GateOp op = netlist::gate_op(type);
    const auto fanins = circuit_.fanins(id);
    const LogicValue out =
        netlist::is_inverted(type) ? negate(val_[id]) : val_[id];
    switch (op) {
      case GateOp::kBuf:
        assign(fanins[0], out);
        break;
      case GateOp::kAnd:
      case GateOp::kOr: {
        const LogicValue control = to_logic(netlist::controlling_value(op));
        if (out != control) {
          for (const NodeId f : fanins) assign(f, out);
          break;
        }
        NodeId free = kInvalidNode;
        for (const NodeId f : fanins) {
          if (val_[f] == control) return;
          if (val_[f] == LogicValue::kUnknown) {
            if (free != kInvalidNode) return;
            free = f;
          }
        }
        if (free != kInvalidNode) assign(free, control);
        break;
      }
      case GateOp::kXor: {
        NodeId free = kInvalidNode;
        bool parity = out == LogicValue::kOne;
        for (const NodeId f : fanins) {
          if (val_[f] == LogicValue::kUnknown) {
            if (free != kInvalidNode) return;
            free = f;
          } else {
            parity ^= val_[f] == LogicValue::kOne;
          }
        }
        if (free != kInvalidNode) assign(free, to_logic(parity));
        break;
      }
      case GateOp::kMaj:
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          if (val_[fanins[i]] == negate(out)) {
            for (std::size_t j = 0; j < fanins.size(); ++j) {
              if (j != i) assign(fanins[j], out);
            }
            return;
          }
        }
        break;
      case GateOp::kInput:
      case GateOp::kConst:
        break;
    }
  }

  const Circuit& circuit_;
  const netlist::Fanouts& fanouts_;
  std::vector<LogicValue> val_;
  std::deque<NodeId> queue_;
  bool consistent_ = true;
};

ConstantFacts reference_constants(const Circuit& circuit) {
  ConstantFacts facts;
  const std::size_t n = circuit.node_count();
  facts.forward = forward_constants(circuit);
  facts.proved = facts.forward;
  const netlist::Fanouts fanouts(circuit);
  const auto learn = [&](NodeId id, LogicValue value) {
    ReferenceEnv env(circuit, fanouts, facts.proved);
    env.assume(id, value);
    facts.proved = env.values();
    ++facts.learned;
  };
  for (int round = 0; round < 3; ++round) {
    bool changed = false;
    ++facts.probe_rounds;
    for (NodeId id = 0; id < n; ++id) {
      if (facts.proved[id] != LogicValue::kUnknown) continue;
      ReferenceEnv zero(circuit, fanouts, facts.proved);
      ReferenceEnv one(circuit, fanouts, facts.proved);
      const bool zero_ok = zero.assume(id, LogicValue::kZero);
      const bool one_ok = one.assume(id, LogicValue::kOne);
      facts.probes += 2;
      if (!zero_ok && !one_ok) continue;
      if (!zero_ok || !one_ok) {
        learn(id, zero_ok ? LogicValue::kZero : LogicValue::kOne);
        changed = true;
        continue;
      }
      for (NodeId m = 0; m < n; ++m) {
        const LogicValue v = zero.values()[m];
        if (v != LogicValue::kUnknown && v == one.values()[m] &&
            facts.proved[m] == LogicValue::kUnknown) {
          learn(m, v);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return facts;
}

// ---- circuits --------------------------------------------------------------

std::string label(const char* prefix, std::uint64_t i) {
  return prefix + std::to_string(i);
}

// Every gate type at small arities over inputs, both constants and earlier
// gates, with the size drawn from the seed too, so probing meets
// contradictions, agreement and constants at every depth.
Circuit random_with_constants(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  Circuit c(label("rand_s", seed));
  std::vector<NodeId> pool;
  const std::uint64_t inputs = 3 + rng.next_below(8);
  for (std::uint64_t i = 0; i < inputs; ++i) {
    pool.push_back(c.add_input(label("x", i)));
  }
  pool.push_back(c.add_const(false));
  pool.push_back(c.add_const(true));
  constexpr GateType kTypes[] = {
      GateType::kBuf, GateType::kNot,  GateType::kAnd, GateType::kNand,
      GateType::kOr,  GateType::kNor,  GateType::kXor, GateType::kXnor,
      GateType::kMaj, GateType::kConst0, GateType::kConst1};
  const int gates = 10 + static_cast<int>(rng.next_below(90));
  for (int g = 0; g < gates; ++g) {
    const GateType type = kTypes[rng.next_below(std::size(kTypes))];
    int arity = 1 + static_cast<int>(rng.next_below(4));
    if (type == GateType::kBuf || type == GateType::kNot) arity = 1;
    if (type == GateType::kMaj) arity = 3;
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      pool.push_back(c.add_const(type == GateType::kConst1));
      continue;
    }
    std::vector<NodeId> fanins;
    for (int f = 0; f < arity; ++f) {
      fanins.push_back(pool[rng.next_below(pool.size())]);
    }
    pool.push_back(c.add_gate(type, std::move(fanins)));
  }
  const std::uint64_t outputs = 1 + rng.next_below(6);
  for (std::uint64_t o = 0; o < outputs; ++o) {
    c.add_output(pool[pool.size() - 1 - rng.next_below(12)], label("y", o));
  }
  return c;
}

Circuit not_chain(int length) {
  Circuit c(label("not_chain", static_cast<std::uint64_t>(length)));
  NodeId acc = c.add_input("x");
  for (int i = 0; i < length; ++i) acc = c.add_gate(GateType::kNot, acc);
  c.add_output(acc, "y");
  return c;
}

Circuit and_or_chain(int length) {
  Circuit c(label("and_or_chain", static_cast<std::uint64_t>(length)));
  std::vector<NodeId> inputs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    inputs.push_back(c.add_input(label("x", i)));
  }
  NodeId acc = inputs[0];
  for (int i = 1; i <= length; ++i) {
    acc = c.add_gate(i % 2 == 1 ? GateType::kAnd : GateType::kOr, acc,
                     inputs[static_cast<std::size_t>(i) % inputs.size()]);
  }
  c.add_output(acc, "y");
  return c;
}

void expect_matches_reference(const Circuit& c) {
  const ConstantFacts expected = reference_constants(c);
  const ConstantFacts actual = analyze_constants(c);
  EXPECT_EQ(actual.forward, expected.forward) << c.name();
  EXPECT_EQ(actual.proved, expected.proved) << c.name();
  EXPECT_EQ(actual.probes, expected.probes) << c.name();
  EXPECT_EQ(actual.learned, expected.learned) << c.name();
  EXPECT_EQ(actual.probe_rounds, expected.probe_rounds) << c.name();
}

// ---- constants vs the reference --------------------------------------------

TEST(ConstantsReference, RandomDagsWithConstants) {
  std::uint64_t learned = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Circuit c = random_with_constants(seed);
    expect_matches_reference(c);
    learned += analyze_constants(c).learned;
  }
  EXPECT_GT(learned, 0u) << "no random DAG exercised probe learning";
}

TEST(ConstantsReference, StandardAndScaleSuites) {
  std::vector<gen::BenchmarkSpec> specs = gen::standard_suite();
  for (auto& spec : gen::scale_suite()) specs.push_back(std::move(spec));
  for (const gen::BenchmarkSpec& spec : specs) {
    expect_matches_reference(spec.build());
  }
}

TEST(ConstantsReference, HardenedVariants) {
  const std::pair<const char*, Circuit> bases[] = {
      {"c17", gen::c17()},
      {"c432", gen::c432()},
      {"mult8", gen::array_multiplier(8)}};
  for (const auto& [name, base] : bases) {
    for (const ft::VoterStyle voter :
         {ft::VoterStyle::kMajGate, ft::VoterStyle::kTwoInput}) {
      harden::SweepOptions options;
      options.voter = voter;
      for (const harden::TransformOptions& t :
           harden::enumerate_candidates(base.num_outputs(), options)) {
        SCOPED_TRACE(std::string(name) + '/' + harden::to_string(t.style) +
                     '/' + harden::to_string(t.granularity) + "/k" +
                     std::to_string(t.top_k));
        expect_matches_reference(harden::harden_transform(base, t).circuit);
      }
    }
  }
}

TEST(ConstantsReference, DeepChains) {
  expect_matches_reference(not_chain(1000));
  expect_matches_reference(not_chain(1001));
  expect_matches_reference(and_or_chain(1000));
}

// ---- CEC stage 2 vs the constants-first reference --------------------------

std::string output_label(const Circuit& circuit, std::size_t position) {
  const std::string name = circuit.output_name(position);
  return name.empty() ? "#" + std::to_string(position) : name;
}

// Signatures, then structural discharge with each circuit's proved
// constants folded into one shared hasher, then BDDs.
CecResult reference_cec(const Circuit& a, const Circuit& b) {
  const CecOptions options;
  CecResult result;
  result.outputs = a.num_outputs();
  result.signature_words = static_cast<std::uint64_t>(options.signature_words);
  std::vector<bool> refuted(a.num_outputs(), false);
  const auto refute = [&](std::size_t o) {
    refuted[o] = true;
    ++result.refuted;
    if (result.first_mismatch_output.empty()) {
      result.first_mismatch_output = output_label(a, o);
    }
  };
  sim::LogicSim sim_a(a);
  sim::LogicSim sim_b(b);
  std::vector<sim::Word> inputs(a.num_inputs());
  for (int w = 0; w < options.signature_words; ++w) {
    const std::uint64_t word_seed =
        exec::stream_seed(options.seed, static_cast<std::uint64_t>(w));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = exec::stream_seed(word_seed, i);
    }
    sim_a.eval(inputs);
    sim_b.eval(inputs);
    const std::vector<sim::Word> out_a = sim_a.output_values();
    const std::vector<sim::Word> out_b = sim_b.output_values();
    for (std::size_t o = 0; o < out_a.size(); ++o) {
      if (!refuted[o] && out_a[o] != out_b[o]) refute(o);
    }
  }

  const ConstantFacts facts_a = analyze_constants(a);
  const ConstantFacts facts_b = analyze_constants(b);
  StructuralHasher hasher(a.num_inputs());
  const std::vector<std::uint32_t> ids_a =
      hasher.hash_circuit(a, &facts_a.proved);
  const std::vector<std::uint32_t> ids_b =
      hasher.hash_circuit(b, &facts_b.proved);
  std::vector<std::size_t> open;
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    if (refuted[o]) continue;
    if (ids_a[a.outputs()[o]] == ids_b[b.outputs()[o]]) {
      ++result.proved_structural;
    } else {
      open.push_back(o);
    }
  }

  bdd::Bdd manager(static_cast<unsigned>(a.num_inputs()),
                   options.bdd_node_limit);
  const std::vector<bdd::Ref> refs_a = bdd::build_node_bdds(manager, a);
  const std::vector<bdd::Ref> refs_b = bdd::build_node_bdds(manager, b);
  for (const std::size_t o : open) {
    if (refs_a[a.outputs()[o]] == refs_b[b.outputs()[o]]) {
      ++result.proved_bdd;
    } else {
      refute(o);
    }
  }
  result.equivalent = result.refuted == 0;
  return result;
}

// The circuit with its first gate of an invertible type flipped to the
// complementary type: usually inequivalent, sometimes masked.
Circuit mutate_first_gate(const Circuit& base) {
  Circuit out(base.name() + "_mut");
  bool flipped = false;
  std::vector<NodeId> map(base.node_count());
  for (NodeId id = 0; id < base.node_count(); ++id) {
    GateType type = base.type(id);
    if (type == GateType::kInput) {
      map[id] = out.add_input(base.node_name(id));
      continue;
    }
    std::vector<NodeId> fanins;
    for (const NodeId f : base.fanins(id)) fanins.push_back(map[f]);
    const GateOp op = netlist::gate_op(type);
    if (!flipped && (op == GateOp::kAnd || op == GateOp::kOr ||
                     op == GateOp::kXor)) {
      type = netlist::gate_type_of(op, !netlist::is_inverted(type));
      flipped = true;
    }
    map[id] = out.add_gate(type, std::move(fanins));
  }
  for (std::size_t o = 0; o < base.num_outputs(); ++o) {
    out.add_output(map[base.outputs()[o]], base.output_name(o));
  }
  return out;
}

TEST(CecStage2, PlainHashFirstKeepsVerdictsAndOnlyGainsStructuralProofs) {
  std::uint64_t pairs = 0;
  std::uint64_t shifted = 0;
  std::uint64_t refuted_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const Circuit base = random_with_constants(seed);
    const Circuit variants[] = {synth::sweep(base), synth::strash(base),
                                ft::nmr_transform(base).circuit,
                                mutate_first_gate(base)};
    for (const Circuit& variant : variants) {
      if (variant.num_inputs() != base.num_inputs()) continue;
      SCOPED_TRACE(base.name() + " vs " + variant.name());
      const CecResult expected = reference_cec(base, variant);
      const CecResult actual = check_equivalence(base, variant);
      ++pairs;
      EXPECT_EQ(actual.equivalent, expected.equivalent);
      EXPECT_EQ(actual.refuted, expected.refuted);
      EXPECT_EQ(actual.inconclusive, expected.inconclusive);
      EXPECT_EQ(actual.first_mismatch_output, expected.first_mismatch_output);
      EXPECT_EQ(actual.outputs, expected.outputs);
      EXPECT_GE(actual.proved_structural, expected.proved_structural);
      EXPECT_EQ(actual.proved_structural + actual.proved_bdd + actual.refuted,
                actual.outputs);
      shifted += actual.proved_structural - expected.proved_structural;
      refuted_pairs += actual.refuted > 0;
    }
  }
  EXPECT_GT(pairs, 2000u);
  EXPECT_GT(refuted_pairs, 0u) << "no mutated pair was refuted";
  RecordProperty("outputs_moved_to_structural", std::to_string(shifted));
}

}  // namespace
}  // namespace enb::analysis
