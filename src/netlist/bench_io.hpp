// ISCAS .bench reader/writer.
//
// The .bench dialect accepted:
//   # comment
//   INPUT(a)
//   OUTPUT(sum)
//   sum = XOR(a, b)
//   g0  = NAND(a, sum)
//   k0  = CONST0()          # extension: constants
// Net names use [alnum _ . [ ] $ /]. Keywords and gate names are
// case-insensitive (BUFF and INV alias BUF and NOT), and nothing but a
// comment may follow a statement's closing ')'. Signals may be defined
// after first use. Sequential elements (q = DFF(d)) are rejected: the IR is
// combinational, matching the paper's scope ("future work includes the
// treatment of sequential circuits"); the sequential reader
// (seq/seq_bench_io.hpp) scans with latches enabled instead.
//
// scan_bench is the one definition of this dialect. The combinational
// reader, the sequential reader and the linter's source rules
// (analysis/lint.hpp) all call it, and build_bench turns its statements into
// a Circuit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/circuit.hpp"

namespace enb::netlist {

// Error type for malformed .bench input; the message names the line or net.
class BenchParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Source-level defects; each is one of the linter's source rules.
enum class BenchIssueKind : std::uint8_t {
  kSyntax,       // unparseable line
  kMultiDriven,  // net declared or defined more than once
  kZeroFanin,    // gate call with no operands where the type needs some
  kUndriven,     // net used but never declared INPUT or defined
  kCycle,        // combinational cycle (the message carries the path)
};

struct BenchIssue {
  BenchIssueKind kind = BenchIssueKind::kSyntax;
  std::string site;  // "line N" for syntax errors, else the net name
  std::string message;
};

// One parsed line. `net` and `operands` index BenchSource::nets.
struct BenchStatement {
  enum class Kind : std::uint8_t { kInput, kOutput, kGate, kLatch };
  Kind kind = Kind::kInput;
  GateType type = GateType::kInput;     // kGate only
  std::uint32_t net = 0;                // declared, listed or driven net
  std::vector<std::uint32_t> operands;  // gate fanins, or a latch's data net
  int line = 0;
};

struct BenchSource {
  std::vector<std::string> nets;  // every net name, in first-mention order
  std::vector<BenchStatement> statements;  // in file order
  // Syntax, multi-driven and zero-fanin issues in line order, then undriven
  // nets by name, then cycles.
  std::vector<BenchIssue> issues;
};

// Scans .bench text. Never throws: every defect becomes an issue. With
// `latches` set, `q = DFF(d)` lines become kLatch statements instead of
// syntax errors; a latch output is a driven net and breaks cycles.
[[nodiscard]] BenchSource scan_bench(std::string_view text,
                                     bool latches = false);

struct BenchCircuit {
  Circuit circuit;
  std::vector<std::pair<NodeId, NodeId>> latches;  // (output, data) per DFF
};

// Builds a scanned source; throws BenchParseError for its first issue or for
// a gate whose operand count its type does not accept. Node ids: inputs and
// latch outputs in statement order, then each output's fanin cone in
// post-order, then each latch's data cone, then definitions no output or
// latch reaches, in statement order.
[[nodiscard]] BenchCircuit build_bench(const BenchSource& source,
                                       std::string name = "");

// A .bench file's text and its stem ("dir/c17.bench" -> "c17"), the circuit
// name the file readers use. Throws BenchParseError if it cannot be opened.
struct BenchFile {
  std::string text;
  std::string stem;
};
[[nodiscard]] BenchFile load_bench_file(const std::string& path);

[[nodiscard]] Circuit read_bench_string(std::string_view text,
                                        std::string name = "");
[[nodiscard]] Circuit read_bench_file(const std::string& path);

void write_bench(const Circuit& circuit, std::ostream& out);
[[nodiscard]] std::string write_bench_string(const Circuit& circuit);
void write_bench_file(const Circuit& circuit, const std::string& path);

}  // namespace enb::netlist
