// Netlist linter: every seeded defect class must surface as a typed
// diagnostic (rule id + site), every shipped circuit — gen/ suites and the
// ft/ redundancy variants — must lint with zero errors, and the lint kind
// must ride the analysis request/batch plumbing like any other analysis.
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "ft/multiplex.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"

namespace enb::analysis {
namespace {

using netlist::Circuit;
using netlist::GateType;

std::optional<LintDiagnostic> find_rule(const LintReport& report,
                                        LintRule rule) {
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule == rule) return d;
  }
  return std::nullopt;
}

std::size_t count_rule(const LintReport& report, LintRule rule) {
  std::size_t count = 0;
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule == rule) ++count;
  }
  return count;
}

TEST(Lint, RuleIdsAreStableKebabCase) {
  EXPECT_STREQ(to_string(LintRule::kSyntax), "syntax");
  EXPECT_STREQ(to_string(LintRule::kCycle), "cycle");
  EXPECT_STREQ(to_string(LintRule::kUndrivenNet), "undriven-net");
  EXPECT_STREQ(to_string(LintRule::kMultiDrivenNet), "multi-driven-net");
  EXPECT_STREQ(to_string(LintRule::kZeroFaninGate), "zero-fanin-gate");
  EXPECT_STREQ(to_string(LintRule::kDuplicateName), "duplicate-name");
  EXPECT_STREQ(to_string(LintRule::kNoOutputs), "no-outputs");
  EXPECT_STREQ(to_string(LintRule::kVoterReplicas), "voter-replicas");
  EXPECT_STREQ(to_string(LintRule::kFloatingOutput), "floating-output");
  EXPECT_STREQ(to_string(LintRule::kUnreachable), "unreachable");
  EXPECT_STREQ(to_string(LintRule::kUnusedInput), "unused-input");
  EXPECT_STREQ(to_string(LintRule::kExhaustiveCap), "exhaustive-cap");
  EXPECT_STREQ(to_string(LintRule::kConstantNet), "constant-net");
  EXPECT_STREQ(to_string(LintRule::kRedundantGate), "redundant-gate");
  EXPECT_STREQ(to_string(LintRule::kUntestableFault), "untestable-fault");
  EXPECT_STREQ(to_string(LintSeverity::kError), "error");
  EXPECT_STREQ(to_string(LintSeverity::kWarning), "warning");
}

TEST(Lint, CleanCircuitProducesNoDiagnostics) {
  const Circuit c17 = gen::find_benchmark("c17").build();
  const LintReport report = lint_circuit(c17);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.nodes, c17.node_count());
}

// ---- source-level defect classes -----------------------------------------

TEST(Lint, CombinationalCycleIsReportedWithItsPath) {
  const LintReport report = lint_bench_text(
      "INPUT(x)\n"
      "OUTPUT(a)\n"
      "a = AND(b, x)\n"
      "b = OR(a, x)\n");
  const auto d = find_rule(report, LintRule::kCycle);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, LintSeverity::kError);
  EXPECT_EQ(d->site, "a");
  EXPECT_NE(d->message.find("a -> b -> a"), std::string::npos) << d->message;
  EXPECT_FALSE(report.clean());
}

TEST(Lint, UndrivenNetIsAnError) {
  const LintReport report = lint_bench_text(
      "INPUT(a)\n"
      "OUTPUT(y)\n"
      "y = AND(a, ghost)\n");
  const auto d = find_rule(report, LintRule::kUndrivenNet);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, "ghost");
  EXPECT_EQ(d->severity, LintSeverity::kError);
}

TEST(Lint, MultiDrivenNetIsAnError) {
  const LintReport report = lint_bench_text(
      "INPUT(a)\n"
      "INPUT(b)\n"
      "OUTPUT(y)\n"
      "y = AND(a, b)\n"
      "y = OR(a, b)\n");
  const auto d = find_rule(report, LintRule::kMultiDrivenNet);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, "y");

  // A definition colliding with an INPUT declaration is the same defect.
  const LintReport redeclared = lint_bench_text(
      "INPUT(a)\n"
      "INPUT(b)\n"
      "OUTPUT(a)\n"
      "a = NOT(b)\n");
  EXPECT_TRUE(find_rule(redeclared, LintRule::kMultiDrivenNet).has_value());
}

TEST(Lint, ZeroFaninGateIsAnErrorButConstantsAreNot) {
  const LintReport report = lint_bench_text(
      "INPUT(a)\n"
      "OUTPUT(y)\n"
      "g = AND()\n"
      "k = CONST0()\n"
      "y = OR(a, g)\n");
  const auto d = find_rule(report, LintRule::kZeroFaninGate);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, "g");
  EXPECT_NE(d->message.find("AND"), std::string::npos) << d->message;
}

TEST(Lint, SyntaxErrorsNameTheLine) {
  const LintReport garbage = lint_bench_text(
      "INPUT(a)\n"
      "this is not bench\n");
  const auto d = find_rule(garbage, LintRule::kSyntax);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, "line 2");

  // Sequential elements are outside the combinational IR's scope.
  const LintReport dff = lint_bench_text(
      "INPUT(d)\n"
      "OUTPUT(q)\n"
      "q = DFF(d)\n");
  const auto seq = find_rule(dff, LintRule::kSyntax);
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(seq->site, "line 3");
  EXPECT_NE(seq->message.find("DFF"), std::string::npos) << seq->message;
}

// The source rules run on an explicit stack: a 200k-deep chain hanging off
// an undriven net yields its one diagnostic, and the circuit rules (which
// need a buildable netlist) never run.
TEST(Lint, DeepChainSourceScanDoesNotRecurse) {
  constexpr int kDepth = 200000;
  std::string text = "n1 = NOT(ghost)\n";
  for (int i = 2; i <= kDepth; ++i) {
    text.append("n").append(std::to_string(i)).append(" = NOT(n");
    text.append(std::to_string(i - 1)).append(")\n");
  }
  text.append("OUTPUT(n").append(std::to_string(kDepth)).append(")\n");
  const LintReport report = lint_bench_text(text);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, LintRule::kUndrivenNet);
  EXPECT_EQ(report.diagnostics[0].site, "ghost");
  EXPECT_EQ(report.nodes, 0u);
}

TEST(Lint, NoOutputsIsAnError) {
  const LintReport report = lint_bench_text(
      "INPUT(a)\n"
      "g = NOT(a)\n");
  EXPECT_TRUE(find_rule(report, LintRule::kNoOutputs).has_value());
}

// ---- circuit-level defect classes ----------------------------------------

TEST(Lint, DuplicateNodeNameIsAnError) {
  Circuit c("dup");
  const auto a = c.add_input("a");
  const auto b = c.add_input("a");  // same explicit name
  c.add_output(c.add_gate(GateType::kAnd, a, b), "y");
  const LintReport report = lint_circuit(c);
  const auto d = find_rule(report, LintRule::kDuplicateName);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, "a");
  EXPECT_EQ(d->severity, LintSeverity::kError);
}

TEST(Lint, DuplicateNamesReportOncePerNameInNodeOrder) {
  // Node 3 is unnamed, so its synthesized "n3" collides with input 1's
  // explicit name; "a" names three nodes and is reported once.
  Circuit c("dups");
  const auto a = c.add_input("a");
  const auto n3 = c.add_input("n3");
  const auto a2 = c.add_input("a");
  const auto g = c.add_gate(GateType::kAnd, a, n3);
  const auto h = c.add_gate(GateType::kOr, a2, g);
  c.set_node_name(h, "a");
  c.add_output(h, "y");
  const std::vector<LintDiagnostic> expected = {
      {LintSeverity::kError, LintRule::kDuplicateName, "a",
       "net name 'a' refers to both node 0 and node 2"},
      {LintSeverity::kError, LintRule::kDuplicateName, "n3",
       "net name 'n3' refers to both node 1 and node 3"},
  };
  EXPECT_EQ(lint_errors(c).diagnostics, expected);
}

TEST(Lint, ExplicitNameCollidesWithALaterUnnamedNodesSynthesizedName) {
  // Unnamed node 3 is "n3", and so is node 5 by assignment; "n03" and "n9"
  // (no such node) collide with nothing, nor does node 4 naming itself.
  Circuit c("synth");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto x = c.add_input("n03");
  const auto g = c.add_gate(GateType::kAnd, a, b);
  const auto h = c.add_gate(GateType::kOr, g, x);
  c.set_node_name(h, "n4");
  const auto y = c.add_gate(GateType::kXor, h, a);
  c.set_node_name(y, "n3");
  const auto z = c.add_gate(GateType::kNot, y);
  c.set_node_name(z, "n9");
  c.add_output(z, "z");
  const std::vector<LintDiagnostic> expected = {
      {LintSeverity::kError, LintRule::kDuplicateName, "n3",
       "net name 'n3' refers to both node 3 and node 5"},
  };
  EXPECT_EQ(lint_errors(c).diagnostics, expected);
}

TEST(Lint, VoterWithDuplicatedDriverIsASuppressibleWarning) {
  // Not an error: multiplex restorative stages legitimately route one bundle
  // wire into several voter slots, so structure alone cannot prove a defect.
  Circuit c("badvote");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  c.add_output(c.add_gate(GateType::kMaj, a, a, b), "v");
  const LintReport report = lint_circuit(c);
  const auto d = find_rule(report, LintRule::kVoterReplicas);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_NE(d->message.find("2 distinct"), std::string::npos) << d->message;
  EXPECT_TRUE(report.clean());

  LintOptions allow;
  allow.allow_voter_replicas = true;
  EXPECT_EQ(count_rule(lint_circuit(c, allow), LintRule::kVoterReplicas), 0u);

  // A proper 3-replica vote is fine.
  Circuit ok("goodvote");
  const auto x = ok.add_input("x");
  const auto y = ok.add_input("y");
  const auto z = ok.add_input("z");
  ok.add_output(ok.add_gate(GateType::kMaj, x, y, z), "v");
  EXPECT_TRUE(lint_circuit(ok).clean());
}

TEST(Lint, DeadLogicAndUnusedInputsAreWarnings) {
  Circuit c("dead");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  c.add_input("spare");  // never used
  const auto live = c.add_gate(GateType::kAnd, a, b);
  const auto feeder = c.add_gate(GateType::kNot, a);    // feeds only `sink`
  const auto sink = c.add_gate(GateType::kOr, feeder, b);  // floats
  (void)sink;
  c.add_output(live, "y");
  c.set_node_name(feeder, "feeder");
  c.set_node_name(sink, "sink");

  const LintReport report = lint_circuit(c);
  EXPECT_TRUE(report.clean());  // dead logic is suspect, not fatal
  EXPECT_EQ(report.warnings(), 4u);
  const auto floating = find_rule(report, LintRule::kFloatingOutput);
  ASSERT_TRUE(floating.has_value());
  EXPECT_EQ(floating->site, "sink");
  const auto unreachable = find_rule(report, LintRule::kUnreachable);
  ASSERT_TRUE(unreachable.has_value());
  EXPECT_EQ(unreachable->site, "feeder");
  const auto unused = find_rule(report, LintRule::kUnusedInput);
  ASSERT_TRUE(unused.has_value());
  EXPECT_EQ(unused->site, "spare");
  // Dead logic is also statically untestable — the semantic summary rule
  // agrees with the structural ones.
  EXPECT_TRUE(find_rule(report, LintRule::kUntestableFault).has_value());
}

TEST(Lint, ExhaustiveCapWarningTracksTheOption) {
  const Circuit c17 = gen::find_benchmark("c17").build();  // 5 inputs
  EXPECT_EQ(count_rule(lint_circuit(c17), LintRule::kExhaustiveCap), 0u);

  LintOptions tight;
  tight.exhaustive_cap = 4;
  const LintReport report = lint_circuit(c17, tight);
  const auto d = find_rule(report, LintRule::kExhaustiveCap);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_NE(d->message.find("ExhaustiveCapError"), std::string::npos)
      << d->message;
}

TEST(Lint, ErrorsSortBeforeWarnings) {
  Circuit c("mixed");
  const auto a = c.add_input("a");
  const auto b = c.add_input("a");  // duplicate name -> error
  (void)c.add_gate(GateType::kNot, a);  // floating -> warning
  c.add_output(c.add_gate(GateType::kAnd, a, b), "v");
  const LintReport report = lint_circuit(c);
  ASSERT_GE(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics.front().severity, LintSeverity::kError);
  EXPECT_EQ(report.diagnostics.back().severity, LintSeverity::kWarning);
}

TEST(Lint, TextRendererSummarizesCounts) {
  Circuit c("r");
  const auto a = c.add_input("a");
  const auto b = c.add_input("a");  // duplicate name -> error
  const auto v = c.add_gate(GateType::kAnd, a, b);
  c.set_node_name(v, "v");
  c.add_output(v, "v");
  std::ostringstream out;
  write_lint_text(out, lint_circuit(c));
  EXPECT_NE(out.str().find("error[duplicate-name] a:"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("1 errors, 0 warnings"), std::string::npos)
      << out.str();
}

// ---- shipped circuits lint clean -----------------------------------------

TEST(Lint, StandardAndScaleSuitesLintWithZeroErrors) {
  for (const std::vector<gen::BenchmarkSpec>& suite :
       {gen::standard_suite(), gen::scale_suite()}) {
    for (const gen::BenchmarkSpec& spec : suite) {
      const Circuit circuit = spec.build();
      const LintReport report = lint_circuit(circuit);
      EXPECT_EQ(report.errors(), 0u) << spec.name;
      // Structural warnings must not fire on suite circuits. The semantic
      // rules may: carry-select adders genuinely duplicate the propagate/
      // generate logic of their speculative halves (redundant-gate) and fix
      // a speculative carry-in at a constant (constant-net), and constants
      // feed untestable classes — those findings are proofs, not noise. The
      // exhaustive cap warns on wide circuits as before.
      for (const LintDiagnostic& d : report.diagnostics) {
        EXPECT_TRUE(d.rule == LintRule::kExhaustiveCap ||
                    d.rule == LintRule::kConstantNet ||
                    d.rule == LintRule::kRedundantGate ||
                    d.rule == LintRule::kUntestableFault)
            << spec.name << ": " << d.message;
      }
      EXPECT_EQ(
          count_rule(report, LintRule::kExhaustiveCap),
          circuit.num_inputs() > 20 ? 1u : 0u)
          << spec.name;
    }
  }
}

TEST(Lint, BenchRoundTripOfTheStandardSuiteLintsClean) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const std::string text = netlist::write_bench_string(spec.build());
    const LintReport report = lint_bench_text(text, spec.name);
    EXPECT_EQ(report.errors(), 0u) << spec.name;
  }
}

TEST(Lint, FaultToleranceVariantsLintWithZeroErrors) {
  for (const gen::BenchmarkSpec& spec : gen::small_suite()) {
    const Circuit base = spec.build();
    for (const ft::VoterStyle style :
         {ft::VoterStyle::kMajGate, ft::VoterStyle::kTwoInput}) {
      ft::NmrOptions options;
      options.voter = style;
      const LintReport report =
          lint_circuit(ft::nmr_transform(base, options).circuit);
      EXPECT_EQ(report.errors(), 0u) << spec.name;
    }
  }
  const Circuit c17 = gen::find_benchmark("c17").build();
  EXPECT_EQ(lint_circuit(ft::cascaded_tmr(c17, 2)).errors(), 0u);

  // Von Neumann multiplexing picks restorative triples with replacement by
  // design, so voter-replicas may legitimately fire — and bundling
  // multiplies the input count past the exhaustive cap. Redundancy variants
  // also trip the semantic rules by construction (replicas are structurally
  // identical logic). Nothing structural beyond that may fire.
  const LintReport mux =
      lint_circuit(ft::multiplex_transform(c17).circuit);
  for (const LintDiagnostic& d : mux.diagnostics) {
    EXPECT_TRUE(d.rule == LintRule::kVoterReplicas ||
                d.rule == LintRule::kExhaustiveCap ||
                d.rule == LintRule::kConstantNet ||
                d.rule == LintRule::kRedundantGate ||
                d.rule == LintRule::kUntestableFault)
        << d.message;
  }
  EXPECT_EQ(mux.errors(), 0u);

  // With the replica convention acknowledged, the multiplex variant lints
  // with no voter-replicas noise at all — the PR-7 false positive.
  LintOptions allow;
  allow.allow_voter_replicas = true;
  const LintReport quiet =
      lint_circuit(ft::multiplex_transform(c17).circuit, allow);
  EXPECT_EQ(count_rule(quiet, LintRule::kVoterReplicas), 0u);
}

// ---- analysis-layer integration ------------------------------------------

TEST(Lint, RidesTheAnalysisRequestVocabulary) {
  EXPECT_EQ(parse_analysis_kind("lint"), AnalysisKind::kLint);
  EXPECT_STREQ(to_string(AnalysisKind::kLint), "lint");
  EXPECT_EQ(canonical_spec(LintRequest{}),
            "lint exhaustive_cap=20 allow_voter_replicas=0");

  AnalysisRequest request;
  request.name = "chk";
  request.circuit = compile(gen::find_benchmark("c17").build());
  request.options = LintRequest{};
  EXPECT_EQ(request.kind(), AnalysisKind::kLint);

  const AnalysisResult result = exec::evaluate_requests({request}).front();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.kind, AnalysisKind::kLint);
  const LintReport* report = result.get<LintReport>();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(result.metric("errors"), 0.0);
  EXPECT_EQ(result.metric("warnings"), 0.0);
  EXPECT_EQ(result.metric("nodes"),
            static_cast<double>(report->nodes));
}

TEST(Lint, RidesTheBatchManifest) {
  std::istringstream manifest(
      "chk kind=lint circuit=c17\n"
      "wide kind=lint circuit=rca256\n");
  std::vector<AnalysisRequest> requests = exec::parse_manifest_requests(
      manifest, [](const std::string& spec) {
        return compile(gen::build_circuit_spec(spec));
      });
  ASSERT_EQ(requests.size(), 2u);
  const std::vector<AnalysisResult> results =
      exec::evaluate_requests(std::move(requests));
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("errors"), 0.0);
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[1].metric("errors"), 0.0);
  EXPECT_EQ(results[1].metric("warnings"), 1.0);  // exhaustive-cap

  // The fault-campaign-only manifest keys stay rejected for lint jobs.
  std::istringstream bad("chk kind=lint circuit=c17 mode=exhaustive\n");
  EXPECT_THROW((void)exec::parse_manifest_requests(
                   bad,
                   [](const std::string& spec) {
                     return compile(gen::build_circuit_spec(spec));
                   }),
               std::invalid_argument);
}

TEST(Lint, FailedLintRequestReportsNotThrows) {
  AnalysisRequest request;
  request.name = "empty";
  request.options = LintRequest{};  // empty circuit handle
  const AnalysisResult result = exec::evaluate_requests({request}).front();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(Lint, JsonEscapesControlBytesAsFourHexDigits) {
  // A control byte inside a .bench line reaches the diagnostic text; the
  // JSON writer must emit it as a four-digit escape. An unpadded one is
  // invalid JSON before 'q', and before 'c' silently reads as U+001C.
  const LintReport report = lint_bench_text(
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, b\x01" "q)\nz = OR(a, b\x01" "c)\n",
      "ctl");
  std::ostringstream json;
  write_lint_json(json, "c\x02" "tl", report);
  const std::string text = json.str();
  EXPECT_NE(text.find("b\\u0001q"), std::string::npos) << text;
  EXPECT_NE(text.find("b\\u0001c"), std::string::npos) << text;
  EXPECT_EQ(text.rfind("{\"name\": \"c\\u0002tl\", ", 0), 0u) << text;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(text[i]), 0x20) << "raw byte at " << i;
  }
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace enb::analysis
