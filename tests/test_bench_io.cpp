#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "netlist/stats.hpp"

namespace enb::netlist {
namespace {

constexpr const char* kC17 = R"(# c17 (ISCAS'85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIo, ParsesC17) {
  const Circuit c = read_bench_string(kC17, "c17");
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
  const CircuitStats stats = compute_stats(c);
  EXPECT_EQ(stats.gate_histogram.at(GateType::kNand), 6u);
  EXPECT_EQ(stats.depth, 3);
}

TEST(BenchIo, PreservesInputOrder) {
  const Circuit c = read_bench_string(kC17);
  EXPECT_EQ(c.node_name(c.inputs()[0]), "1");
  EXPECT_EQ(c.node_name(c.inputs()[1]), "2");
  EXPECT_EQ(c.node_name(c.inputs()[4]), "7");
  EXPECT_EQ(c.output_name(0), "22");
  EXPECT_EQ(c.output_name(1), "23");
}

TEST(BenchIo, ResolvesForwardReferences) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = AND(mid, a)
mid = NOT(a)
)");
  EXPECT_EQ(c.gate_count(), 2u);
  EXPECT_EQ(c.type(c.outputs()[0]), GateType::kAnd);
}

TEST(BenchIo, SupportsConstantsAndAliases) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
k = CONST1()
b = BUFF(a)
i = INV(b)
y = OR(i, k)
)");
  EXPECT_EQ(c.num_outputs(), 1u);
  EXPECT_EQ(c.gate_count(), 3u);  // buf, inv, or (const excluded)
}

TEST(BenchIo, CommentsAndBlankLines) {
  const Circuit c = read_bench_string(
      "# header\n\nINPUT(a)  # trailing comment\n\nOUTPUT(a)\n");
  EXPECT_EQ(c.num_inputs(), 1u);
  EXPECT_EQ(c.num_outputs(), 1u);
}

TEST(BenchIo, RejectsUndefinedSignal) {
  EXPECT_THROW((void)read_bench_string("OUTPUT(y)\ny = AND(a, b)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsSequentialGates) {
  EXPECT_THROW(
      (void)read_bench_string("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"),
      BenchParseError);
}

TEST(BenchIo, RejectsCycles) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
OUTPUT(x)
x = AND(a, y)
y = NOT(x)
)"),
               BenchParseError);
}

TEST(BenchIo, RejectsDuplicateDefinition) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
OUTPUT(x)
x = NOT(a)
x = BUF(a)
)"),
               BenchParseError);
}

TEST(BenchIo, RejectsBadArity) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(x)
x = NOT(a, b)
)"),
               BenchParseError);
}

TEST(BenchIo, RoundTrip) {
  const Circuit original = read_bench_string(kC17, "c17");
  const std::string text = write_bench_string(original);
  const Circuit reread = read_bench_string(text, "c17_rt");
  EXPECT_EQ(reread.num_inputs(), original.num_inputs());
  EXPECT_EQ(reread.num_outputs(), original.num_outputs());
  EXPECT_EQ(reread.gate_count(), original.gate_count());
  // Names survive the round trip.
  EXPECT_EQ(reread.node_name(reread.inputs()[0]), "1");
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW((void)read_bench_file("/nonexistent/path.bench"),
               BenchParseError);
}

// scan_bench is the one definition of the dialect, so the reader rejects a
// text exactly when the linter reports a source-level defect in it.
TEST(BenchIo, ReaderAndLinterAgreeOnSourceDefects) {
  struct Row {
    const char* label;
    std::string text;
    bool defective;
  };
  const std::vector<Row> rows = {
      {"clean c17", kC17, false},
      {"text after a gate's ')'",
       "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b) junk\n", true},
      {"text after an INPUT's ')'", "INPUT(a) junk\nOUTPUT(a)\n", true},
      {"mixed-case OUTPUT", "INPUT(a)\nOuTpUt(a)\n", false},
      {"lower-case keywords", "input(a)\noutput(y)\ny = not(a)\n", false},
      {"empty operand", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, , b)\n",
       true},
      {"trailing empty operand", "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n", true},
      {"control byte in a name", "INPUT(a)\nOUTPUT(y)\ny = AND(a, b\x01q)\n",
       true},
      {"AND()", "INPUT(a)\nOUTPUT(y)\ng = AND()\ny = OR(a, g)\n", true},
      {"cycle", "INPUT(x)\nOUTPUT(a)\na = AND(b, x)\nb = OR(a, x)\n", true},
      {"undriven net", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", true},
      {"redeclared INPUT", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", true},
      {"redefined INPUT", "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = NOT(b)\n", true},
      {"DFF", "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n", true},
  };
  const auto source_level = [](const analysis::LintDiagnostic& d) {
    using analysis::LintRule;
    return d.rule == LintRule::kSyntax || d.rule == LintRule::kCycle ||
           d.rule == LintRule::kUndrivenNet ||
           d.rule == LintRule::kMultiDrivenNet ||
           d.rule == LintRule::kZeroFaninGate;
  };
  for (const Row& row : rows) {
    bool reader_threw = false;
    try {
      (void)read_bench_string(row.text);
    } catch (const BenchParseError&) {
      reader_threw = true;
    }
    const analysis::LintReport report = analysis::lint_bench_text(row.text);
    const bool linter_flagged =
        std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                    source_level);
    EXPECT_EQ(reader_threw, row.defective) << row.label;
    EXPECT_EQ(linter_flagged, row.defective) << row.label;
  }
}

TEST(BenchIo, DeepChainReadsWithoutRecursion) {
  constexpr int kDepth = 200000;
  std::string text = "INPUT(a)\nn1 = NOT(a)\n";
  for (int i = 2; i <= kDepth; ++i) {
    text.append("n").append(std::to_string(i)).append(" = NOT(n");
    text.append(std::to_string(i - 1)).append(")\n");
  }
  text.append("OUTPUT(n").append(std::to_string(kDepth)).append(")\n");
  const Circuit c = read_bench_string(text);
  EXPECT_EQ(c.node_count(), static_cast<std::size_t>(kDepth) + 1);
  EXPECT_EQ(c.node_name(c.outputs()[0]), "n200000");
}

// Definitions no output reaches are built after the output cones, in
// statement order, each after its own fanin cone.
TEST(BenchIo, DanglingDefinitionsFollowStatementOrder) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = NOT(a)
p = AND(a, q)
r = OR(a)
q = BUF(a)
)");
  std::vector<std::string> names;
  for (NodeId id = 0; id < c.node_count(); ++id) names.push_back(c.node_name(id));
  EXPECT_EQ(names, (std::vector<std::string>{"a", "y", "q", "p", "r"}));
}

#ifdef ENB_DATA_DIR
TEST(BenchIo, ReadsShippedC17Fixture) {
  const Circuit c = read_bench_file(std::string(ENB_DATA_DIR) + "/c17.bench");
  EXPECT_EQ(c.name(), "c17");  // derived from the file name
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
}

TEST(BenchIo, FileWriteReadRoundTrip) {
  const Circuit original =
      read_bench_file(std::string(ENB_DATA_DIR) + "/c17.bench");
  const std::string path = ::testing::TempDir() + "/c17_roundtrip.bench";
  write_bench_file(original, path);
  const Circuit reread = read_bench_file(path);
  EXPECT_EQ(reread.gate_count(), original.gate_count());
  EXPECT_EQ(reread.num_inputs(), original.num_inputs());
  std::remove(path.c_str());
}
#endif

}  // namespace
}  // namespace enb::netlist
