#include "cli/args.hpp"

#include <cstddef>

#include "util/numeric.hpp"

namespace enb::cli {

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  const std::size_t argc = argv.size();
  for (std::size_t i = 0; i < argc && args.ok(); ++i) {
    const std::string& arg = argv[i];

    // Fetches the flag's value argument, bounds-checked: a trailing flag
    // reports an error instead of reading past the end.
    const auto next_value = [&](const std::string& flag,
                                std::string& slot) -> bool {
      if (i + 1 >= argc) {
        args.error = "option " + flag + " requires a value";
        return false;
      }
      slot = argv[++i];
      return true;
    };
    const auto next_double = [&](const std::string& flag,
                                 double& slot) -> bool {
      std::string text;
      if (!next_value(flag, text)) return false;
      if (!util::parse_double(text, slot)) {
        args.error = "option " + flag + " expects a number, got '" + text + "'";
        return false;
      }
      return true;
    };
    const auto next_int = [&](const std::string& flag, int& slot) -> bool {
      std::string text;
      if (!next_value(flag, text)) return false;
      if (!util::parse_int(text, slot)) {
        args.error =
            "option " + flag + " expects an integer, got '" + text + "'";
        return false;
      }
      return true;
    };

    const auto next_uint64 = [&](const std::string& flag,
                                 std::uint64_t& slot) -> bool {
      std::string text;
      if (!next_value(flag, text)) return false;
      if (!util::parse_uint64(text, slot)) {
        args.error = "option " + flag +
                     " expects a non-negative integer, got '" + text + "'";
        return false;
      }
      return true;
    };

    if (arg == "--eps") {
      next_double(arg, args.eps);
    } else if (arg == "--delta") {
      next_double(arg, args.delta);
    } else if (arg == "--leakage") {
      next_double(arg, args.leakage);
    } else if (arg == "--eps-lo") {
      next_double(arg, args.eps_lo);
    } else if (arg == "--eps-hi") {
      next_double(arg, args.eps_hi);
    } else if (arg == "--couple-leakage") {
      args.couple_leakage = true;
    } else if (arg == "--stream") {
      args.stream = true;
    } else if (arg == "--map") {
      if (next_int(arg, args.map_fanin) &&
          (args.map_fanin < 0 || args.map_fanin == 1)) {
        args.error = "option --map expects 0 (analyze as-is) or a fanin "
                     ">= 2, got '" + std::to_string(args.map_fanin) + "'";
      }
    } else if (arg == "--points") {
      next_int(arg, args.points);
    } else if (arg == "--threads") {
      int threads = 0;
      if (next_int(arg, threads) && threads < 0) {
        args.error = "option --threads expects a count >= 0, got '" +
                     std::to_string(threads) + "'";
      } else {
        args.threads = static_cast<unsigned>(threads);
      }
    } else if (arg == "--socket") {
      next_value(arg, args.socket);
    } else if (arg == "--max-handles") {
      int capacity = 0;
      if (next_int(arg, capacity) && capacity < 1) {
        args.error = "option --max-handles expects a count >= 1, got '" +
                     std::to_string(capacity) + "'";
      } else {
        args.max_handles = capacity;
      }
    } else if (arg == "--max-cache") {
      int capacity = 0;
      if (next_int(arg, capacity) && capacity < 1) {
        args.error = "option --max-cache expects a count >= 1, got '" +
                     std::to_string(capacity) + "'";
      } else {
        args.max_cache = capacity;
      }
    } else if (arg == "--patterns") {
      next_uint64(arg, args.patterns);
    } else if (arg == "--seed") {
      next_uint64(arg, args.seed);
    } else if (arg == "--exhaustive") {
      args.exhaustive = true;
    } else if (arg == "--bundle-width") {
      next_int(arg, args.bundle_width);
    } else if (arg == "--no-collapse") {
      args.no_collapse = true;
    } else if (arg == "--check-scalar") {
      args.check_scalar = true;
    } else if (arg == "--drop") {
      args.drop = true;
    } else if (arg == "--lanes") {
      next_uint64(arg, args.lanes);
    } else if (arg == "--sample") {
      next_uint64(arg, args.sample);
    } else if (arg == "--prune-untestable") {
      args.prune_untestable = true;
    } else if (arg == "--allow-voter-replicas") {
      args.allow_voter_replicas = true;
    } else if (arg == "--tmr") {
      args.gen_tmr = true;
    } else if (arg == "--strash") {
      args.gen_strash = true;
    } else if (arg == "--golden") {
      next_value(arg, args.golden);
    } else if (arg == "--style") {
      next_value(arg, args.style);
    } else if (arg == "--granularity") {
      next_value(arg, args.granularity);
    } else if (arg == "--top-k") {
      next_uint64(arg, args.top_k);
    } else if (arg == "--emit") {
      next_value(arg, args.emit);
    } else if (arg == "--ans") {
      next_value(arg, args.ans);
    } else if (arg == "--trace") {
      next_value(arg, args.trace);
    } else if (arg == "-o") {
      next_value(arg, args.out);
    } else if (arg == "--csv") {
      next_value(arg, args.csv);
    } else if (arg == "--json") {
      next_value(arg, args.json);
    } else if (!arg.empty() && arg[0] == '-') {
      args.error = "unknown option: " + arg;
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

const std::vector<std::string>& known_commands() {
  static const std::vector<std::string> commands = {
      "profile", "analyze", "sweep",  "batch", "faultsim", "cec",
      "lint",    "harden",  "serve",  "client", "gen",     "list"};
  return commands;
}

bool is_known_command(const std::string& name) {
  for (const std::string& command : known_commands()) {
    if (command == name) return true;
  }
  return false;
}

}  // namespace enb::cli
