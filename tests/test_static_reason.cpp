// Static reasoning engine contract tests.
//
// The acceptance bar of the PR 8 oracle:
//   - analyze_constants separates the two proof tiers: forward constants
//     fall out of one topological scan, probe-learned constants need the
//     implication fixpoint (and land only in `proved`);
//   - StructuralHasher's canonical ids absorb the rewrites the harden pass
//     will rely on (NAND = NOT(AND), commutative sort, BUF/NOT(NOT)
//     identities, XOR cancellation, MAJ vote reductions);
//   - check_equivalence proves the ft/ redundancy variants and the strash
//     rewrite equal to their bases, refutes a single-gate mutation with the
//     differing output named, and reports "no verdict" (never "different")
//     when the BDD budget blows;
//   - kind=cec rides the analysis layer: spec string, the batch, and the
//     batch manifest all agree with a direct check_equivalence call.
#include "analysis/static_reason.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "netlist/circuit.hpp"
#include "synth/strash.hpp"
#include "synth/structural_hasher.hpp"

namespace enb::analysis {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using synth::LogicValue;
using synth::StructuralHasher;

// ---- analyze_constants ---------------------------------------------------

TEST(StaticReason, ForwardConstantsPropagateInOneScan) {
  Circuit c("forward");
  const NodeId x = c.add_input("x");
  const NodeId zero = c.add_const(false);
  const NodeId g = c.add_gate(GateType::kAnd, x, zero);   // = 0
  const NodeId h = c.add_gate(GateType::kNor, g, g);      // = 1
  const NodeId live = c.add_gate(GateType::kXor, x, h);   // = !x, not constant
  c.add_output(live, "y");

  const ConstantFacts facts = analyze_constants(c);
  EXPECT_EQ(facts.forward[g], LogicValue::kZero);
  EXPECT_EQ(facts.forward[h], LogicValue::kOne);
  EXPECT_EQ(facts.forward[x], LogicValue::kUnknown);
  EXPECT_EQ(facts.forward[live], LogicValue::kUnknown);
  // Tier one subsumes into the proved view unchanged.
  EXPECT_EQ(facts.proved[g], LogicValue::kZero);
  EXPECT_EQ(facts.proved[h], LogicValue::kOne);
  EXPECT_EQ(facts.proved[live], LogicValue::kUnknown);
}

TEST(StaticReason, ProbingLearnsContradictionConstants) {
  // m = AND(x, NOT(x)) is identically 0, but no fanin is a constant gate, so
  // the forward tier cannot see it; probing m=1 forces x=1 and x=0 at once.
  Circuit c("probe");
  const NodeId x = c.add_input("x");
  const NodeId nx = c.add_gate(GateType::kNot, x);
  const NodeId m = c.add_gate(GateType::kAnd, x, nx);
  const NodeId y = c.add_gate(GateType::kOr, m, x);  // = x once m is folded
  c.add_output(y, "y");

  const ConstantFacts facts = analyze_constants(c);
  EXPECT_EQ(facts.forward[m], LogicValue::kUnknown);
  EXPECT_EQ(facts.proved[m], LogicValue::kZero);
  EXPECT_GT(facts.learned, 0u);
  EXPECT_GT(facts.probes, 0u);
  // x itself is genuinely free and must never be "proved".
  EXPECT_EQ(facts.proved[x], LogicValue::kUnknown);
  EXPECT_EQ(facts.proved[y], LogicValue::kUnknown);
}

TEST(StaticReason, ProbeRoundsCanBeDisabled) {
  // forward_constants is tier one alone: exactly analyze_constants'
  // `forward`, with no probe run.
  std::vector<gen::BenchmarkSpec> specs = gen::standard_suite();
  for (auto& spec : gen::scale_suite()) specs.push_back(std::move(spec));
  for (const gen::BenchmarkSpec& spec : specs) {
    const Circuit c = spec.build();
    EXPECT_EQ(forward_constants(c), analyze_constants(c).forward) << spec.name;
  }
}

// ---- StructuralHasher ----------------------------------------------------

TEST(StructuralHash, DeMorganFormsShareOneClass) {
  // NAND(a,b), NOT(AND(a,b)), and NOT(AND(b,a)) must intern identically:
  // NAND normalizes to NOT(AND(...)) and AND operands sort.
  Circuit c("demorgan");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId nand_ab = c.add_gate(GateType::kNand, a, b);
  const NodeId and_ab = c.add_gate(GateType::kAnd, a, b);
  const NodeId not_and = c.add_gate(GateType::kNot, and_ab);
  const NodeId and_ba = c.add_gate(GateType::kAnd, b, a);
  const NodeId not_and_swapped = c.add_gate(GateType::kNot, and_ba);
  c.add_output(nand_ab, "y");

  StructuralHasher hasher(c.num_inputs());
  const std::vector<std::uint32_t> ids = hasher.hash_circuit(c);
  EXPECT_EQ(ids[and_ab], ids[and_ba]);
  EXPECT_EQ(ids[nand_ab], ids[not_and]);
  EXPECT_EQ(ids[nand_ab], ids[not_and_swapped]);
  EXPECT_NE(ids[nand_ab], ids[and_ab]);
}

TEST(StructuralHash, BufAndDoubleNegationAreIdentities) {
  Circuit c("identities");
  const NodeId a = c.add_input("a");
  const NodeId buf = c.add_gate(GateType::kBuf, a);
  const NodeId n1 = c.add_gate(GateType::kNot, buf);
  const NodeId n2 = c.add_gate(GateType::kNot, n1);
  const NodeId x2 = c.add_gate(GateType::kXor, a, a);      // = 0
  const NodeId xn = c.add_gate(GateType::kXnor, a, n1);    // = XNOR(a,!a) = 0
  c.add_output(n2, "y");

  StructuralHasher hasher(c.num_inputs());
  const std::vector<std::uint32_t> ids = hasher.hash_circuit(c);
  EXPECT_EQ(ids[buf], hasher.input_id(0));
  EXPECT_EQ(ids[n2], hasher.input_id(0));  // NOT(NOT(a)) = a
  EXPECT_EQ(ids[x2], StructuralHasher::const_id(false));
  EXPECT_EQ(ids[xn], StructuralHasher::const_id(false));
}

TEST(StructuralHash, MajorityVoteReductions) {
  Circuit c("maj");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId na = c.add_gate(GateType::kNot, a);
  const NodeId dup = c.add_gate(GateType::kMaj, a, a, b);      // = a
  const NodeId cancel = c.add_gate(GateType::kMaj, a, na, b);  // = b
  const NodeId one = c.add_const(true);
  const NodeId fold = c.add_gate(GateType::kMaj, one, a, b);   // = a | b
  const NodeId or_ab = c.add_gate(GateType::kOr, a, b);
  c.add_output(dup, "y");

  StructuralHasher hasher(c.num_inputs());
  const std::vector<std::uint32_t> ids = hasher.hash_circuit(c);
  EXPECT_EQ(ids[dup], hasher.input_id(0));
  EXPECT_EQ(ids[cancel], hasher.input_id(1));
  EXPECT_EQ(ids[fold], ids[or_ab]);
}

TEST(StructuralHash, TwoInputVoterCollapsesOverEqualReplicas) {
  // The ft/ two-input voter OR(AND(r0,r1), AND(r2, OR(r0,r1))) must collapse
  // to the replica class when all three replicas hash equal — this is
  // exactly how check_equivalence discharges TMR variants structurally.
  Circuit c("voter");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId r0 = c.add_gate(GateType::kAnd, a, b);
  const NodeId r1 = c.add_gate(GateType::kAnd, b, a);
  const NodeId r2 = c.add_gate(GateType::kAnd, a, b);
  const NodeId pair = c.add_gate(GateType::kAnd, r0, r1);
  const NodeId either = c.add_gate(GateType::kOr, r0, r1);
  const NodeId tiebreak = c.add_gate(GateType::kAnd, r2, either);
  const NodeId vote = c.add_gate(GateType::kOr, pair, tiebreak);
  c.add_output(vote, "y");

  StructuralHasher hasher(c.num_inputs());
  const std::vector<std::uint32_t> ids = hasher.hash_circuit(c);
  EXPECT_EQ(ids[r0], ids[r1]);
  EXPECT_EQ(ids[r0], ids[r2]);
  // AND(r,r) = r, OR(r,r) = r, so the vote is OR(r, AND(r,r)) = r.
  EXPECT_EQ(ids[vote], ids[r0]);
}

TEST(StructuralHash, ProvedConstantsFoldIntoTheHash) {
  // With the constant view folded in, AND(x, m) where m is probe-proved 0
  // hashes straight to const 0.
  Circuit c("fold");
  const NodeId x = c.add_input("x");
  const NodeId nx = c.add_gate(GateType::kNot, x);
  const NodeId m = c.add_gate(GateType::kAnd, x, nx);
  const NodeId g = c.add_gate(GateType::kAnd, x, m);
  c.add_output(g, "y");

  const ConstantFacts facts = analyze_constants(c);
  StructuralHasher hasher(c.num_inputs());
  const std::vector<std::uint32_t> ids = hasher.hash_circuit(c, &facts.proved);
  EXPECT_EQ(ids[m], StructuralHasher::const_id(false));
  EXPECT_EQ(ids[g], StructuralHasher::const_id(false));
}

// ---- check_equivalence ---------------------------------------------------

TEST(Cec, StrashVariantProvesStructurally) {
  for (const char* name : {"c17", "rca8", "mult4"}) {
    const Circuit base = gen::find_benchmark(name).build();
    const Circuit rewritten = synth::strash(base);
    const CecResult result = check_equivalence(base, rewritten);
    EXPECT_TRUE(result.equivalent) << name;
    EXPECT_EQ(result.refuted, 0u) << name;
    EXPECT_FALSE(result.inconclusive) << name;
    EXPECT_EQ(result.proved_structural + result.proved_bdd, result.outputs)
        << name;
  }
}

TEST(Cec, RedundancyVariantsProveEquivalent) {
  const Circuit base = gen::find_benchmark("c17").build();
  const Circuit tmr = ft::nmr_transform(base).circuit;
  const CecResult vs_tmr = check_equivalence(base, tmr);
  EXPECT_TRUE(vs_tmr.equivalent);
  EXPECT_EQ(vs_tmr.refuted, 0u);

  const Circuit cascaded = ft::cascaded_tmr(base, 2);
  const CecResult vs_cascaded = check_equivalence(base, cascaded);
  EXPECT_TRUE(vs_cascaded.equivalent);

  ft::NmrOptions five;
  five.copies = 5;
  const Circuit nmr5 = ft::nmr_transform(base, five).circuit;
  EXPECT_TRUE(check_equivalence(base, nmr5).equivalent);
}

TEST(Cec, SingleGateMutationIsRefutedWithOutputNamed) {
  const Circuit base = gen::find_benchmark("c17").build();
  // Rebuild with one NAND flipped to AND: a single-gate mutation.
  Circuit mutated(std::string(base.name()) + "_mut");
  bool flipped = false;
  std::vector<NodeId> map(base.node_count());
  for (NodeId id = 0; id < base.node_count(); ++id) {
    if (base.type(id) == GateType::kInput) {
      map[id] = mutated.add_input(base.node_name(id));
      continue;
    }
    GateType type = base.type(id);
    if (!flipped && type == GateType::kNand) {
      type = GateType::kAnd;
      flipped = true;
    }
    std::vector<NodeId> fanins;
    for (const NodeId f : base.fanins(id)) fanins.push_back(map[f]);
    map[id] = mutated.add_gate(type, std::move(fanins));
    mutated.set_node_name(map[id], base.node_name(id));
  }
  ASSERT_TRUE(flipped);
  for (std::size_t o = 0; o < base.num_outputs(); ++o) {
    mutated.add_output(map[base.outputs()[o]], base.output_name(o));
  }

  const CecResult result = check_equivalence(base, mutated);
  EXPECT_FALSE(result.equivalent);
  EXPECT_GT(result.refuted, 0u);
  EXPECT_FALSE(result.first_mismatch_output.empty());
  // The named output is one of the circuit's real output labels.
  bool found = false;
  for (std::size_t o = 0; o < base.num_outputs(); ++o) {
    if (base.output_name(o) == result.first_mismatch_output) found = true;
  }
  EXPECT_TRUE(found) << result.first_mismatch_output;
}

TEST(Cec, InterfaceMismatchThrows) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const Circuit rca8 = gen::find_benchmark("rca8").build();
  EXPECT_THROW(static_cast<void>(check_equivalence(c17, rca8)),
               std::invalid_argument);
  CecOptions bad;
  bad.signature_words = 0;
  EXPECT_THROW(static_cast<void>(check_equivalence(c17, c17, bad)),
               std::invalid_argument);
}

TEST(Cec, BddBudgetBlowoutIsInconclusiveNotDifferent) {
  // Distribution: OR(AND(a,b), AND(a,c)) vs AND(a, OR(b,c)). Signatures
  // agree and the hasher has no distribution rewrite, so the pair reaches
  // the BDD stage; a starvation-level node budget must yield "no verdict".
  Circuit lhs("dist-lhs");
  {
    const NodeId a = lhs.add_input("a");
    const NodeId b = lhs.add_input("b");
    const NodeId c = lhs.add_input("c");
    const NodeId ab = lhs.add_gate(GateType::kAnd, a, b);
    const NodeId ac = lhs.add_gate(GateType::kAnd, a, c);
    lhs.add_output(lhs.add_gate(GateType::kOr, ab, ac), "y");
  }
  Circuit rhs("dist-rhs");
  {
    const NodeId a = rhs.add_input("a");
    const NodeId b = rhs.add_input("b");
    const NodeId c = rhs.add_input("c");
    rhs.add_output(
        rhs.add_gate(GateType::kAnd, a, rhs.add_gate(GateType::kOr, b, c)),
        "y");
  }

  const CecResult full = check_equivalence(lhs, rhs);
  EXPECT_TRUE(full.equivalent);
  EXPECT_EQ(full.proved_bdd, 1u);  // only the BDD stage can close this pair

  CecOptions starved;
  starved.bdd_node_limit = 1;
  const CecResult result = check_equivalence(lhs, rhs, starved);
  EXPECT_TRUE(result.inconclusive);
  EXPECT_FALSE(result.equivalent);
  EXPECT_EQ(result.refuted, 0u);
}

// ---- analysis-layer integration ------------------------------------------

TEST(CecRequestTest, KindParsesAndSpecIsStable) {
  ASSERT_TRUE(parse_analysis_kind("cec").has_value());
  EXPECT_EQ(*parse_analysis_kind("cec"), AnalysisKind::kCec);
  EXPECT_STREQ(to_string(AnalysisKind::kCec), "cec");
  // The canonical spec covers every value-relevant knob; the serve result
  // cache keys on this string, so its shape is pinned.
  EXPECT_EQ(canonical_spec(CecRequest{}),
            "cec seed=52933 signature_words=8 bdd_node_limit=4194304");
}

TEST(CecRequestTest, EvaluateMatchesDirectCall) {
  const CompiledCircuit base =
      compile(gen::find_benchmark("c17").build());
  const CompiledCircuit tmr =
      compile(ft::nmr_transform(base.circuit()).circuit);

  AnalysisRequest request;
  request.name = "c17-vs-tmr";
  request.circuit = base;
  request.golden = tmr;
  request.options = CecRequest{};
  const AnalysisResult result = exec::evaluate_requests({request}).front();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.kind, AnalysisKind::kCec);
  ASSERT_NE(result.get<CecResult>(), nullptr);

  const CecResult direct = check_equivalence(base.circuit(), tmr.circuit());
  const CecResult& served = *result.get<CecResult>();
  EXPECT_EQ(served.equivalent, direct.equivalent);
  EXPECT_EQ(served.proved_structural, direct.proved_structural);
  EXPECT_EQ(served.proved_bdd, direct.proved_bdd);
  EXPECT_EQ(result.metric("equivalent"), 1.0);
}

TEST(CecRequestTest, MissingGoldenFailsTheRequestNotTheBatch) {
  AnalysisRequest request;
  request.name = "no-golden";
  request.circuit = compile(gen::find_benchmark("c17").build());
  request.options = CecRequest{};
  const AnalysisResult result = exec::evaluate_requests({request}).front();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("golden"), std::string::npos) << result.error;
}

TEST(CecRequestTest, ManifestLineRoundTrips) {
  std::istringstream manifest(
      "pair kind=cec circuit=c17 golden=c17 seed=7 budget=4\n");
  const auto resolve = [](const std::string& spec) {
    return compile(gen::find_benchmark(spec).build());
  };
  const std::vector<AnalysisRequest> requests =
      exec::parse_manifest_requests(manifest, resolve);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].kind(), AnalysisKind::kCec);
  ASSERT_TRUE(requests[0].golden.has_value());
  const auto& options = std::get<CecRequest>(requests[0].options).options;
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.signature_words, 4);

  const std::vector<AnalysisResult> results =
      exec::evaluate_requests(requests);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("equivalent"), 1.0);
}

}  // namespace
}  // namespace enb::analysis
