// The named benchmark suite used by the Figure 7/8 reproductions — this
// repo's substitute for the paper's "subset of ISCAS'85 benchmarks and some
// computer arithmetic circuits (ripple-carry adders and array multipliers)
// with various bitwidths" (Section 6). See DESIGN.md for the substitution
// rationale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace enb::gen {

struct BenchmarkSpec {
  std::string name;
  std::string family;  // "iscas", "parity", "adder", "multiplier", "control"
  std::function<netlist::Circuit()> build;
};

// The standard 12-circuit suite: c17, parity{8,16}, rca{8,16,32}, cla16,
// csel16, mult{4,8}, cmp16, alu8.
[[nodiscard]] std::vector<BenchmarkSpec> standard_suite();

// A smaller suite (c17, parity8, rca8, mult4) for fast tests.
[[nodiscard]] std::vector<BenchmarkSpec> small_suite();

// Larger instances (c432, rca256, csel64, mult16, alu64) for fault
// campaigns at scale — universes where dropping and sampling earn their
// keep. c432 rides here (not in standard_suite()) because its
// n-ary OR gates sit outside the standard suite's max-fanin-2 property
// tests. Kept out of standard_suite() so the Figure 7/8 sweeps and scalar
// cross-checks stay fast.
[[nodiscard]] std::vector<BenchmarkSpec> scale_suite();

// Looks up one spec by name in the standard then scale suites; throws if
// unknown.
[[nodiscard]] BenchmarkSpec find_benchmark(const std::string& name);

// ---- circuit spec resolution ---------------------------------------------
//
// The CLI and the analysis server share one spec vocabulary: a spec is a
// .bench file path when it contains '/' or ends in ".bench", otherwise a
// standard-suite name. One implementation keeps offline and served
// resolution from drifting.

// True when `spec` names a file rather than a suite circuit.
[[nodiscard]] bool spec_is_path(const std::string& spec);

// Builds the circuit a spec names (read_bench_file or suite build); throws
// on unknown suite names / unreadable files.
[[nodiscard]] netlist::Circuit build_circuit_spec(const std::string& spec);

}  // namespace enb::gen
