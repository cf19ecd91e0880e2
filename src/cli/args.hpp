// Argument parsing for the enbound command-line tool, split out of tools/
// so the edge cases (trailing value-taking flags, non-numeric values) are
// unit-testable without spawning the binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace enb::cli {

struct Args {
  std::vector<std::string> positional;
  double eps = 0.01;
  double delta = 0.01;
  double leakage = 0.5;
  bool couple_leakage = false;
  int map_fanin = 3;  // 0 = do not map
  double eps_lo = 1e-3;
  double eps_hi = 0.4;
  int points = 20;
  unsigned threads = 0;  // batch: 0 = global pool, 1 = serial, N = dedicated
  bool stream = false;   // batch: print each result as its job finishes
  std::string socket;    // serve/client: Unix domain socket path
  int max_handles = 64;  // serve: handle-registry LRU capacity
  int max_cache = 4096;  // serve: result-cache LRU capacity
  // faultsim knobs (defaults mirror fault::CampaignOptions).
  std::uint64_t patterns = 256;  // random-pattern budget
  bool exhaustive = false;       // enumerate all logical assignments
  std::uint64_t seed = 0xFA17;   // campaign pattern-stream seed
  int bundle_width = 1;          // ft/ bundle decode width (1 = plain)
  bool no_collapse = false;      // disable equivalence collapsing
  bool check_scalar = false;     // diff vs the scalar reference simulator
  bool drop = false;             // fault dropping (retire detected classes)
  std::uint64_t sample = 0;      // sampled class count (0 = full universe)
  bool prune_untestable = false; // drop statically-untestable classes
  std::string golden;            // golden circuit spec (masking campaigns)
  // lint / gen knobs.
  bool allow_voter_replicas = false;  // lint: silence voter-replicas
  bool gen_tmr = false;               // gen: emit the TMR'd circuit
  bool gen_strash = false;            // gen: emit the strash-rewritten circuit
  // harden knobs (empty / 0 = sweep the full axis).
  std::string style;        // pin the redundancy style (tmr|dwc|selective)
  std::string granularity;  // pin the insertion granularity (gate|cone|output)
  std::uint64_t top_k = 0;  // pin the selective cone count
  std::string emit;         // directory for frontier-winner .bench files
  std::string ans;               // .ans output path
  std::string trace;             // Chrome trace-event JSON output path
  std::string out;
  std::string csv;
  std::string json;

  // Non-empty when parsing failed; names the offending flag and why, e.g.
  // "option --eps requires a value". Flags and positionals parsed before the
  // failure are still filled in.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

// Parses everything after argv[0]. Never throws and never reads past the
// end of `argv`: a value-taking flag with no following argument, or with a
// malformed value, reports through Args::error instead.
[[nodiscard]] Args parse_args(const std::vector<std::string>& argv);

// The tool's subcommand vocabulary, in usage order. main() rejects anything
// else up front — naming the valid commands — instead of falling through to
// the generic usage text.
[[nodiscard]] const std::vector<std::string>& known_commands();
[[nodiscard]] bool is_known_command(const std::string& name);

}  // namespace enb::cli
