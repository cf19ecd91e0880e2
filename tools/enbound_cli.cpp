// enbound — command-line front end to the bounds framework.
//
//   enbound profile <file.bench> [--map K]
//   enbound analyze <file.bench> [--eps E] [--delta D] [--map K]
//                   [--leakage L] [--couple-leakage] [--json out.json]
//   enbound sweep   <file.bench> [--eps-lo A] [--eps-hi B] [--points N]
//                   [--delta D] [--map K] [--csv out.csv] [--json out.json]
//   enbound batch   <manifest>   [--map K] [--threads N] [--stream]
//                   [--trace trace.json] [--csv out.csv] [--json out.json]
//   enbound faultsim <file.bench> [--golden spec] [--patterns N]
//                   [--exhaustive] [--seed S] [--bundle-width B]
//                   [--no-collapse] [--check-scalar] [--drop]
//                   [--sample N] [--map K] [--prune-untestable]
//                   [--threads N] [--ans out.ans]
//                   [--trace trace.json] [--json out.json]
//   enbound cec     <a.bench> <b.bench> [--map K] [--json out.json]
//   enbound lint    <file.bench or suite name> [--allow-voter-replicas]
//                   [--json out.json]
//   enbound harden  <file.bench or suite name> [--style S] [--granularity G]
//                   [--top-k N] [--patterns N] [--seed S] [--eps E]
//                   [--delta D] [--leakage L] [--map K] [--threads N]
//                   [--emit dir] [--json out.json]
//   enbound serve   --socket <path> [--map K] [--threads N]
//                   [--max-handles N] [--max-cache N] [--trace trace.json]
//   enbound client  --socket <path> <verb> [...]
//   enbound gen     <name> [--tmr] [--strash] [-o out.bench]
//   enbound list                                (available suite circuits)
//
// All analysis commands run on the analysis layer: the netlist is compiled
// once into a shared CompiledCircuit handle, derived artifacts (stats,
// profile) are cached on it, and sweeps/batches fan out typed
// AnalysisRequests over the handle — zero netlist copies, one profile
// extraction per design. `batch --stream` prints each result as its job
// finishes (completion order; payloads identical to the blocking run).
// `serve` keeps handles and results alive *across* invocations: it owns a
// Unix domain socket, and `client` submits the same manifests against it —
// byte-identical output, amortized compile/extraction, memoized repeats.
//
// `--trace <file>` (any command) records spans for the whole invocation and
// writes them as Chrome trace-event JSON on exit — load the file in
// chrome://tracing or Perfetto. Purely observational: results and output
// bytes are identical with tracing on or off.
//
// Exit codes: 0 ok, 1 usage (no command or too few arguments), 2 bad
// option, processing/parse error or failed job, 3 input file
// missing/unreadable.
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/kinds.hpp"
#include "analysis/lint.hpp"
#include "analysis/request.hpp"
#include "cli/args.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_sim.hpp"
#include "core/analyzer.hpp"
#include "exec/batch.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "obs/trace.hpp"
#include "synth/strash.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "serve/client.hpp"
#include "sim/logic_sim.hpp"
#include "serve/server.hpp"

namespace {

using namespace enb;
using cli::Args;

// A missing input file is an environment problem, not a parse problem; it
// gets its own exit code so scripts can tell "fix the path" from "fix the
// file".
constexpr int kExitProcessing = 2;
constexpr int kExitMissingInput = 3;

int usage() {
  std::cerr
      << "usage: enbound <command> [options]\n"
         "  profile <file.bench> [--map K]\n"
         "  analyze <file.bench> [--eps E] [--delta D] [--map K]\n"
         "          [--leakage L] [--couple-leakage] [--json out.json]\n"
         "  sweep   <file.bench> [--eps-lo A] [--eps-hi B] [--points N]\n"
         "          [--delta D] [--map K] [--csv out.csv] [--json out.json]\n"
         "  batch   <manifest> [--map K] [--threads N] [--stream]\n"
         "          [--trace trace.json] [--csv out.csv] [--json out.json]\n"
         "  faultsim <file.bench> [--golden spec] [--patterns N]\n"
         "          [--exhaustive] [--seed S] [--bundle-width B]\n"
         "          [--no-collapse] [--check-scalar] [--drop]\n"
         "          [--sample N] [--map K] [--prune-untestable]\n"
         "          [--threads N] [--ans out.ans]\n"
         "          [--trace trace.json] [--json out.json]\n"
         "  cec     <a.bench> <b.bench> [--map K] [--json out.json]\n"
         "  lint    <file.bench or suite name> [--allow-voter-replicas]\n"
         "          [--json out.json]\n"
         "  harden  <file.bench or suite name> [--style tmr|dwc|selective]\n"
         "          [--granularity gate|cone|output] [--top-k N]\n"
         "          [--patterns N] [--seed S] [--eps E] [--delta D]\n"
         "          [--leakage L] [--map K] [--threads N] [--emit dir]\n"
         "          [--json out.json]\n"
         "  serve   --socket <path> [--map K] [--threads N]\n"
         "          [--max-handles N] [--max-cache N] [--trace trace.json]\n"
         "  client  --socket <path> load <spec> [name] [--map K]\n"
         "  client  --socket <path> batch <manifest> [--json out.json]\n"
         "  client  --socket <path> analyze <handle> kind=<kind> [key=val...]\n"
         "  client  --socket <path> stats|metrics|evict [name]|ping|shutdown\n"
         "  gen     <name> [--tmr] [--strash] [-o out.bench]\n"
         "  list\n"
         "notes: --map 0 analyzes netlists as-is, --map K (K >= 2) maps to\n"
         "the generic max-fanin-K library first; the default is the paper's\n"
         "K = 3, and other values are rejected. batch --stream prints\n"
         "each job as it finishes. cec exits 0 when the circuits are proved\n"
         "equivalent and 2 when refuted (naming the first differing output)\n"
         "or inconclusive. --trace <file> (any command) writes Chrome\n"
         "trace-event JSON for the invocation; client metrics prints the\n"
         "server's Prometheus-style exposition. Batch manifests hold one\n"
         "job per line:\n"
         "  <name> kind=<kind> circuit=<suite name or .bench path>\n"
         "         [golden=<spec>] [key=value ...]\n"
         "kinds and the keys each accepts (unused numeric keys are\n"
         "validated, then ignored):\n";
  for (std::size_t k = 0; k < std::variant_size_v<analysis::RequestOptions>;
       ++k) {
    const analysis::KindInfo& row =
        analysis::kind_info(static_cast<analysis::AnalysisKind>(k));
    std::cerr << "  " << row.name << ":";
    for (const analysis::KindKey& key : row.keys) std::cerr << ' ' << key.name;
    std::cerr << "\n";
  }
  std::cerr
      << "harden sweeps redundancy insertion (TMR / DWC / selective) over\n"
         "the base circuit, proves every candidate equivalent, and prints\n"
         "the (energy, protection, gates) Pareto frontier; --emit dir\n"
         "regenerates the frontier winners as .bench files. harden exits 2\n"
         "if any candidate's equivalence proof is refuted.\n"
         "exit codes: 0 ok, 1 usage, 2 bad option, processing/parse error\n"
         "or failed job, 3 input file missing\n";
  return 1;
}

// Opens an input file with the missing-vs-malformed distinction: a path
// that does not exist (or cannot be opened) returns kExitMissingInput
// through `error_exit`; parse errors remain the caller's (exit 2).
bool open_input_file(const std::string& path, const char* what,
                     std::ifstream& in, int& error_exit) {
  in.open(path);
  if (in) return true;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    std::cerr << "error: " << what << " file not found: " << path << "\n";
  } else {
    std::cerr << "error: cannot open " << what << " file: " << path << "\n";
  }
  error_exit = kExitMissingInput;
  return false;
}

// Thrown by load_compiled for a .bench path that does not exist, whether
// it came from the command line or a manifest; main maps it to
// kExitMissingInput (the documented missing-vs-malformed contract).
struct MissingInputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Compiles (and optionally maps) a circuit spec; `what` names the input in
// the missing-file error. Suite names never hit the filesystem. The mapped
// variant is cached on the base handle, so repeated specs share everything.
analysis::CompiledCircuit load_compiled(const Args& args,
                                        const std::string& spec,
                                        const std::string& what = "circuit") {
  std::error_code ec;
  if (gen::spec_is_path(spec) && !std::filesystem::exists(spec, ec)) {
    throw MissingInputError(what + " file not found: " + spec);
  }
  analysis::CompiledCircuit compiled =
      analysis::compile(gen::build_circuit_spec(spec));
  if (args.map_fanin > 0) compiled = compiled.mapped(args.map_fanin);
  return compiled;
}

void print_profile(const core::CircuitProfile& p) {
  report::Table t({"field", "value"});
  t.add_row({std::string("name"), p.name});
  t.add_row({std::string("inputs"), std::to_string(p.num_inputs)});
  t.add_row({std::string("outputs"), std::to_string(p.num_outputs)});
  t.add_row({std::string("gates S0"), report::format_double(p.size_s0, 6)});
  t.add_row({std::string("depth d0"), std::to_string(p.depth_d0)});
  t.add_row({std::string("avg fanin k"),
             report::format_double(p.avg_fanin_k, 4)});
  t.add_row({std::string("avg activity sw0"),
             report::format_double(p.avg_activity_sw0, 4)});
  t.add_row({std::string(p.sensitivity_exact ? "sensitivity s (exact)"
                                             : "sensitivity s (sampled >=)"),
             report::format_double(p.sensitivity_s, 4)});
  std::cout << t.to_text();
}

void write_json_file(const std::string& path,
                     const std::vector<analysis::AnalysisResult>& results) {
  std::ofstream out(path);
  exec::write_batch_json(out, results);
  std::cout << "wrote " << path << "\n";
}

int cmd_profile(const Args& args) {
  const analysis::CompiledCircuit compiled =
      load_compiled(args, args.positional[1]);
  print_profile(compiled.profile());
  return 0;
}

int cmd_analyze(const Args& args) {
  const analysis::CompiledCircuit compiled =
      load_compiled(args, args.positional[1]);
  const core::CircuitProfile& profile = compiled.profile();
  print_profile(profile);
  core::EnergyModelOptions model;
  model.leakage_fraction = args.leakage;
  model.couple_leakage_to_delay = args.couple_leakage;
  const core::BoundReport r =
      core::analyze(profile, args.eps, args.delta, model);
  std::cout << "\nbounds at eps = " << args.eps << ", delta = " << args.delta
            << " (leakage share " << args.leakage << "):\n";
  report::Table t({"metric", "lower bound"});
  t.add_row({std::string("redundancy (gates)"),
             report::format_double(r.redundancy_gates, 5)});
  t.add_row({std::string("size factor"),
             report::format_double(r.size_factor, 5)});
  t.add_row({std::string("switching energy factor"),
             report::format_double(r.energy.switching_factor, 5)});
  t.add_row({std::string("total energy factor"),
             report::format_double(r.energy.total_factor, 5)});
  t.add_row({std::string("leakage ratio W_L/W_L0"),
             report::format_double(r.leakage_ratio, 5)});
  t.add_row({std::string("delay factor"),
             report::format_double(r.metrics.delay, 5)});
  t.add_row({std::string("energy x delay factor"),
             report::format_double(r.metrics.edp, 5)});
  t.add_row({std::string("avg power factor"),
             report::format_double(r.metrics.avg_power, 5)});
  t.add_row({std::string("depth-feasible"),
             std::string(r.depth_feasible ? "yes" : "no (xi^2 <= 1/k)")});
  std::cout << t.to_text();

  if (!args.json.empty()) {
    std::vector<analysis::AnalysisResult> results;
    results.push_back(analysis::make_result(compiled.name(), r));
    write_json_file(args.json, results);
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const analysis::CompiledCircuit compiled =
      load_compiled(args, args.positional[1]);
  const std::vector<double> grid =
      core::log_grid(args.eps_lo, args.eps_hi, args.points);

  // Every grid point is an independent energy-bound request on the shared
  // handle: the batch engine extracts the profile once (shards parallelized
  // over the pool) and fans the cheap per-point analyses out over it.
  exec::BatchEvaluator batch(exec::Parallelism{args.threads});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    analysis::AnalysisRequest request;
    request.name = "eps_" + std::to_string(i);
    request.circuit = compiled;
    analysis::EnergyBoundRequest spec;
    spec.epsilon = grid[i];
    spec.delta = args.delta;
    request.options = spec;
    batch.submit(std::move(request));
  }
  const std::vector<analysis::AnalysisResult> results = batch.run();

  report::Table t({"eps", "E_total", "delay", "edp", "power"});
  std::vector<std::vector<std::string>> rows;
  for (const analysis::AnalysisResult& result : results) {
    if (!result.ok) {
      std::cerr << "error: sweep point " << result.name << " failed: "
                << result.error << "\n";
      return 2;
    }
    const core::BoundReport& r = *result.get<core::BoundReport>();
    t.add_row(report::format_double(r.epsilon, 4),
              {r.energy.total_factor, r.metrics.delay, r.metrics.edp,
               r.metrics.avg_power});
    rows.push_back({report::format_double(r.epsilon, 8),
                    report::format_double(r.energy.total_factor, 8),
                    report::format_double(r.metrics.delay, 8)});
  }
  std::cout << t.to_text();
  if (!args.csv.empty()) {
    report::write_csv_file(args.csv, {"eps", "E_total", "delay"}, rows);
    std::cout << "wrote " << args.csv << "\n";
  }
  if (!args.json.empty()) write_json_file(args.json, results);
  return 0;
}

// "metric = value" for the result's headline, shown in the per-job summary
// table; the full metric set goes to --csv/--json.
std::string headline_of(const analysis::AnalysisResult& r) {
  if (const auto headline = analysis::headline(r)) {
    return std::string(headline->first) + " = " +
           report::format_double(headline->second, 6);
  }
  return "-";
}

int cmd_batch(const Args& args) {
  const std::string& manifest_path = args.positional[1];
  std::ifstream manifest;
  int error_exit = kExitProcessing;
  if (!open_input_file(manifest_path, "manifest", manifest, error_exit)) {
    return error_exit;
  }
  // Handles are memoized per spec: jobs naming the same circuit share one
  // compiled handle — and therefore one profile extraction per profile
  // options value.
  std::map<std::string, analysis::CompiledCircuit> handles;
  std::vector<analysis::AnalysisRequest> requests =
      exec::parse_manifest_requests(manifest, [&](const std::string& spec) {
        const auto it = handles.find(spec);
        if (it != handles.end()) return it->second;
        return handles.emplace(spec, load_compiled(args, spec)).first->second;
      });
  if (requests.empty()) {
    std::cerr << "error: manifest " << manifest_path << " holds no jobs\n";
    return 2;
  }

  exec::BatchEvaluator batch(exec::Parallelism{args.threads});
  for (analysis::AnalysisRequest& request : requests) {
    batch.submit(std::move(request));
  }

  std::vector<analysis::AnalysisResult> results;
  if (args.stream) {
    // Streaming: one line per job in completion order, results collected
    // for the summary/CSV/JSON below (restored to submission order).
    results.resize(batch.pending());
    batch.run([&](analysis::AnalysisResult result) {
      std::cout << "done " << result.name << " ["
                << analysis::to_string(result.kind) << "] "
                << (result.ok ? headline_of(result) : "FAILED: " + result.error)
                << "\n";
      results[result.index] = std::move(result);
    });
  } else {
    results = batch.run();
  }

  report::Table t({"job", "kind", "status", "elapsed", "headline"});
  bool all_ok = true;
  for (const analysis::AnalysisResult& r : results) {
    if (!r.ok) all_ok = false;
    t.add_row({r.name, std::string(analysis::to_string(r.kind)),
               r.ok ? std::string("ok") : "FAILED: " + r.error,
               report::format_double(r.elapsed_seconds, 3) + "s",
               headline_of(r)});
  }
  std::cout << t.to_text();

  if (!args.csv.empty()) {
    std::ofstream out(args.csv);
    exec::write_batch_csv(out, results);
    std::cout << "wrote " << args.csv << "\n";
  }
  if (!args.json.empty()) write_json_file(args.json, results);
  return all_ok ? 0 : 2;
}

// ---- netlist lint --------------------------------------------------------

int cmd_lint(const Args& args) {
  const std::string& spec = args.positional[1];
  analysis::LintOptions options;
  options.allow_voter_replicas = args.allow_voter_replicas;
  analysis::LintReport report;
  if (gen::spec_is_path(spec)) {
    std::ifstream in;
    int error_exit = kExitProcessing;
    if (!open_input_file(spec, "circuit", in, error_exit)) return error_exit;
    std::ostringstream text;
    text << in.rdbuf();
    report = analysis::lint_bench_text(text.str(), spec, options);
  } else {
    // Suite circuits are built programmatically, so there is no source text
    // to scan; the circuit rules are the whole story.
    report = analysis::lint_circuit(gen::build_circuit_spec(spec), options);
  }
  analysis::write_lint_text(std::cout, report);
  if (!args.json.empty()) {
    std::ofstream out(args.json);
    analysis::write_lint_json(out, spec, report);
    std::cout << "wrote " << args.json << "\n";
  }
  return report.clean() ? 0 : kExitProcessing;
}

// ---- fault campaigns -----------------------------------------------------

// Exact decimal text of a flag's value: 17 significant digits round-trip
// every double through the manifest number parser.
std::string exact_text(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

// faultsim/harden flags in the manifest key=value vocabulary, applied
// through the kind's table row: flags and manifest keys share one parser
// and one validation (a bad --style/--granularity is rejected there).
// CLI-only knobs (--bundle-width, --no-collapse, ...) stay direct.
analysis::RequestOptions options_from_flags(analysis::AnalysisKind kind,
                                            const Args& args) {
  std::vector<std::pair<std::string, std::string>> keys = {
      {"budget", std::to_string(args.patterns)},
      {"seed", std::to_string(args.seed)},
      {"sample", std::to_string(args.sample)},
      {"eps", exact_text(args.eps)},
      {"delta", exact_text(args.delta)},
      {"leakage", exact_text(args.leakage)},
  };
  if (args.exhaustive) keys.emplace_back("mode", "exhaustive");
  if (args.drop) keys.emplace_back("drop", "1");
  // Absent keeps the kind's default: off for faultsim, on for harden sweeps.
  if (args.prune_untestable) keys.emplace_back("prune", "1");
  if (kind == analysis::AnalysisKind::kHarden) {
    keys.emplace_back("top_k", std::to_string(args.top_k));
    if (!args.style.empty()) keys.emplace_back("style", args.style);
    if (!args.granularity.empty()) {
      keys.emplace_back("granularity", args.granularity);
    }
  }
  analysis::RequestOptions options = analysis::kind_info(kind).defaults;
  for (const auto& [key, value] : keys) {
    analysis::apply_key(options, key, value);
  }
  return options;
}

int cmd_faultsim(const Args& args) {
  const analysis::CompiledCircuit compiled =
      load_compiled(args, args.positional[1]);
  std::optional<analysis::CompiledCircuit> golden;
  if (!args.golden.empty()) {
    golden = load_compiled(args, args.golden, "golden circuit");
  }

  analysis::RequestOptions request =
      options_from_flags(analysis::AnalysisKind::kFaultCampaign, args);
  fault::CampaignOptions& options =
      std::get<analysis::FaultCampaignRequest>(request).options;
  options.bundle_width = args.bundle_width;
  options.collapse = !args.no_collapse;
  if (!args.ans.empty() && options.sample != 0) {
    std::cerr << "error: --ans rows need the full universe; "
                 "drop --sample or --ans\n";
    return kExitProcessing;
  }

  const netlist::Circuit& circuit = compiled.circuit();
  const netlist::Circuit& reference =
      golden.has_value() ? golden->circuit() : circuit;
  // One campaign run gives the summary, with the requested dropping and
  // sampling, and, when --ans or --check-scalar asks for them, the
  // per-pattern detection rows and the fault universe they index.
  fault::DetectionTable table;
  const bool want_rows = args.check_scalar || !args.ans.empty();
  const fault::FaultCampaignResult result = fault::run_campaign(
      circuit, golden.has_value() ? &reference : nullptr, options,
      exec::Parallelism{args.threads}, want_rows ? &table : nullptr);

  report::Table t({"field", "value"});
  t.add_row({std::string("circuit"), compiled.name()});
  t.add_row({std::string("golden"),
             golden.has_value() ? golden->name() : compiled.name() + " (self)"});
  t.add_row({std::string("nets"), std::to_string(result.nets)});
  t.add_row({std::string("fault sites"), std::to_string(result.sites)});
  t.add_row({std::string("collapsed classes"),
             std::to_string(result.classes)});
  if (options.prune_untestable) {
    t.add_row({std::string("untestable classes"),
               std::to_string(result.untestable)});
  }
  t.add_row({std::string("sampled classes"), std::to_string(result.sampled)});
  t.add_row({std::string("patterns"), std::to_string(result.patterns)});
  t.add_row({std::string("detected classes"),
             std::to_string(result.detected)});
  t.add_row({std::string("first-detect outputs"),
             std::to_string(result.detect_outputs)});
  t.add_row({std::string("sim passes"), std::to_string(result.sim_passes)});
  t.add_row({std::string("fault dropping"),
             std::string(options.drop ? "on" : "off")});
  t.add_row({std::string("gate overhead"),
             report::format_double(result.gate_overhead, 4)});
  std::cout << t.to_text();
  std::cout << "coverage " << report::format_double(result.coverage, 6) << " ("
            << result.detected << "/" << result.sampled
            << (options.prune_untestable ? " testable" : "")
            << " classes), masked_fraction "
            << report::format_double(result.masked_fraction, 6) << "\n";
  if (result.sampled < result.classes - result.untestable) {
    std::cout << "coverage_ci ["
              << report::format_double(result.coverage_ci_low, 6) << ", "
              << report::format_double(result.coverage_ci_high, 6)
              << "] (Wilson 95%, " << result.sampled << "/" << result.classes
              << " classes sampled)\n";
  }

  if (args.check_scalar) {
    // Cross-check every (pattern, sampled class) bit against the scalar
    // one-fault-at-a-time reference — the two implementations share only
    // the gate rule, not the sweep, the fault injection or the stem
    // propagation, so agreement here is a real equivalence check.
    const fault::FaultUniverse& universe = *table.universe;
    fault::ScalarFaultSim scalar(circuit, universe, options.bundle_width);
    const std::vector<std::uint32_t> sampled =
        fault::sampled_classes(universe, options);
    std::uint64_t scalar_passes = 0;
    std::uint64_t mismatches = 0;
    for (std::size_t p = 0; p < table.patterns.size(); ++p) {
      const std::vector<bool> expected =
          sim::eval_single(reference, table.patterns[p]);
      ++scalar_passes;
      for (const std::uint32_t c : sampled) {
        const bool parallel_bit =
            ((table.detected[p][c / sim::kWordBits] >> (c % sim::kWordBits)) &
             1) != 0;
        if (scalar.detect(c, table.patterns[p], expected) != parallel_bit) {
          ++mismatches;
        }
      }
    }
    scalar_passes += scalar.passes();
    if (mismatches != 0) {
      std::cerr << "error: bit-parallel and scalar fault simulation disagree "
                << "on " << mismatches << " (pattern, fault) pairs\n";
      return kExitProcessing;
    }
    const std::uint64_t passes = result.sim_passes;
    const double reduction = passes == 0 ? 0.0
                                         : static_cast<double>(scalar_passes) /
                                               static_cast<double>(passes);
    std::ostringstream ratio;  // one decimal at any size: 8.5x, 622.5x
    ratio << std::fixed << std::setprecision(1) << reduction;
    std::cout << "scalar check ok: " << scalar_passes << " scalar vs "
              << passes << " bit-parallel passes (" << ratio.str()
              << "x reduction)\n";
  }

  if (!args.ans.empty()) {
    std::ofstream out(args.ans);
    fault::write_ans(out, circuit, result, table);
    std::cout << "wrote " << args.ans << "\n";
  }
  if (!args.json.empty()) {
    std::vector<analysis::AnalysisResult> results;
    results.push_back(analysis::make_result(compiled.name(), result));
    write_json_file(args.json, results);
  }
  return 0;
}

// ---- redundancy hardening ------------------------------------------------

// Frontier-winner filenames derive from the candidate label with '/'
// replaced ("selective/cone/k2" -> "selective-cone-k2.bench"), so emitted
// directories sort by style.
std::string emit_filename(const std::string& label) {
  std::string name = label;
  for (char& c : name) {
    if (c == '/') c = '-';
  }
  return name + ".bench";
}

int cmd_harden(const Args& args) {
  // Loaded before the flags are read, so a missing file wins over a bad
  // --style.
  const analysis::CompiledCircuit compiled =
      load_compiled(args, args.positional[1]);
  const analysis::RequestOptions request =
      options_from_flags(analysis::AnalysisKind::kHarden, args);
  const harden::SweepOptions& options =
      std::get<analysis::HardenRequest>(request).options;

  const exec::Parallelism how{args.threads};
  const harden::ParetoResult result =
      harden::pareto_sweep(compiled, options, how);

  report::Table t({"candidate", "gates", "voters", "checks", "energy",
                   "protection", "coverage", "status", "frontier"});
  for (const harden::Candidate& c : result.candidates) {
    std::string status;
    if (!c.equivalent) {
      status = "REFUTED";
    } else if (!c.lint_clean) {
      status = "LINT";
    } else {
      status = "ok";
    }
    t.add_row({c.label, std::to_string(c.gates), std::to_string(c.voter_gates),
               std::to_string(c.check_outputs),
               report::format_double(c.energy_factor, 5),
               report::format_double(c.protection, 5),
               report::format_double(c.coverage, 5), status,
               std::string(c.on_frontier ? "*" : "")});
  }
  std::cout << t.to_text();
  std::cout << result.frontier.size() << " frontier point(s) over "
            << result.candidates.size() << " candidate(s)";
  if (result.refuted > 0) {
    std::cout << ", " << result.refuted << " REFUTED";
  }
  std::cout << "\n";

  if (!args.json.empty()) {
    std::vector<analysis::AnalysisResult> results;
    results.push_back(analysis::make_result(compiled.name(), result));
    write_json_file(args.json, results);
  }

  if (!args.emit.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.emit, ec);
    if (ec) {
      std::cerr << "error: cannot create emit directory " << args.emit << ": "
                << ec.message() << "\n";
      return kExitProcessing;
    }
    for (const std::uint32_t index : result.frontier) {
      const harden::Candidate& c = result.candidates[index];
      if (!c.hardened) continue;  // the baseline needs no regeneration
      const harden::HardenedCircuit variant =
          harden::rebuild_candidate(compiled.circuit(), options, c, how);
      const std::string path =
          (std::filesystem::path(args.emit) / emit_filename(c.label)).string();
      netlist::write_bench_file(variant.circuit, path);
      std::cout << "wrote " << path << " (" << variant.circuit.gate_count()
                << " gates)\n";
    }
  }

  return result.refuted > 0 ? kExitProcessing : 0;
}

// ---- combinational equivalence checking ----------------------------------

int cmd_cec(const Args& args) {
  if (args.positional.size() < 3) {
    std::cerr << "error: cec needs two circuits to compare\n";
    return 1;
  }
  const analysis::CompiledCircuit a = load_compiled(args, args.positional[1]);
  const analysis::CompiledCircuit b = load_compiled(args, args.positional[2]);
  const analysis::CecResult result =
      analysis::check_equivalence(a.circuit(), b.circuit());

  report::Table t({"field", "value"});
  t.add_row({std::string("circuit a"), a.name()});
  t.add_row({std::string("circuit b"), b.name()});
  t.add_row({std::string("outputs"), std::to_string(result.outputs)});
  t.add_row({std::string("proved structural"),
             std::to_string(result.proved_structural)});
  t.add_row({std::string("proved bdd"), std::to_string(result.proved_bdd)});
  t.add_row({std::string("refuted"), std::to_string(result.refuted)});
  std::cout << t.to_text();

  if (!args.json.empty()) {
    std::vector<analysis::AnalysisResult> results;
    results.push_back(
        analysis::make_result(a.name() + "_vs_" + b.name(), result));
    write_json_file(args.json, results);
  }

  if (result.refuted > 0) {
    std::cout << "not equivalent: output '" << result.first_mismatch_output
              << "' differs\n";
    return kExitProcessing;
  }
  if (result.inconclusive) {
    std::cout << "inconclusive: BDD node limit exceeded before every output "
                 "pair was discharged\n";
    return kExitProcessing;
  }
  std::cout << "equivalent (" << result.proved_structural << " structural, "
            << result.proved_bdd << " bdd)\n";
  return 0;
}

// ---- server mode ---------------------------------------------------------

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

int cmd_serve(const Args& args) {
  if (args.socket.empty()) {
    std::cerr << "error: serve requires --socket <path>\n";
    return 1;
  }
  serve::ServerOptions options;
  options.socket_path = args.socket;
  options.max_handles = static_cast<std::size_t>(args.max_handles);
  options.max_results = static_cast<std::size_t>(args.max_cache);
  options.default_map_fanin = args.map_fanin;
  options.how = exec::Parallelism{args.threads};
  options.external_stop = &g_serve_stop;

  // SIGINT/SIGTERM drain gracefully: in-flight evaluations finish, the
  // socket file is removed.
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  serve::Server server(std::move(options));
  server.bind();
  std::cout << "enbound_served listening on " << args.socket << "\n"
            << std::flush;
  server.run();

  const serve::RegistryStats registry = server.registry_stats();
  const serve::ResultCacheStats cache = server.cache_stats();
  const serve::ServerStats stats = server.stats();
  std::cout << "enbound_served stopped: " << stats.sessions_total
            << " sessions, " << stats.queries << " queries, " << stats.results
            << " results (" << cache.hits << " cache hits), "
            << registry.loads << " circuit loads\n";
  return 0;
}

// ---- client mode ---------------------------------------------------------

void print_client_results(const serve::QueryOutcome& outcome) {
  report::Table t({"job", "kind", "status", "cached", "headline"});
  for (const serve::ResultRecord& r : outcome.results) {
    t.add_row({r.name, r.kind, r.ok ? std::string("ok") : "FAILED",
               r.cached ? std::string("hit") : "miss",
               r.headline.empty() ? std::string("-") : r.headline});
  }
  std::cout << t.to_text() << outcome.cached << "/" << outcome.total
            << " served from the result cache\n";
}

void write_client_json(const std::string& path,
                       const serve::QueryOutcome& outcome) {
  std::ofstream out(path);
  outcome.assemble_json(out);
  std::cout << "wrote " << path << "\n";
}

int client_batch(serve::Client& client, const Args& args) {
  const std::string& manifest_path = args.positional[2];
  std::ifstream manifest;
  int error_exit = kExitProcessing;
  if (!open_input_file(manifest_path, "manifest", manifest, error_exit)) {
    return error_exit;
  }
  std::ostringstream text;
  text << manifest.rdbuf();

  const serve::QueryOutcome outcome =
      client.batch(text.str(), [](const serve::ResultRecord& r) {
        std::cout << "done " << r.name << " [" << r.kind << "] "
                  << (r.cached ? "(cached) " : "")
                  << (r.ok ? (r.headline.empty() ? "ok" : r.headline)
                           : "FAILED")
                  << "\n";
      });
  print_client_results(outcome);
  if (!args.json.empty()) write_client_json(args.json, outcome);
  return outcome.failed == 0 ? 0 : kExitProcessing;
}

int client_analyze(serve::Client& client, const Args& args) {
  const std::string& handle = args.positional[2];
  std::string kind;
  std::vector<std::string> tokens;
  for (std::size_t i = 3; i < args.positional.size(); ++i) {
    const std::string& token = args.positional[i];
    if (token.rfind("kind=", 0) == 0) {
      kind = token.substr(5);
    } else {
      tokens.push_back(token);
    }
  }
  if (kind.empty()) {
    std::cerr << "error: client analyze requires kind=<kind>\n";
    return 1;
  }
  const serve::QueryOutcome outcome = client.analyze(handle, kind, tokens);
  for (const serve::ResultRecord& r : outcome.results) {
    std::cout << r.json << "\n";
  }
  if (!args.json.empty()) write_client_json(args.json, outcome);
  return outcome.failed == 0 ? 0 : kExitProcessing;
}

int cmd_client(const Args& args) {
  if (args.socket.empty()) {
    std::cerr << "error: client requires --socket <path>\n";
    return 1;
  }
  if (args.positional.size() < 2) return usage();
  const std::string& verb = args.positional[1];
  serve::Client client(args.socket);

  if (verb == "batch") {
    if (args.positional.size() < 3) return usage();
    return client_batch(client, args);
  }
  if (verb == "analyze") {
    if (args.positional.size() < 3) return usage();
    return client_analyze(client, args);
  }
  if (verb == "load") {
    if (args.positional.size() < 3) return usage();
    const std::string& spec = args.positional[2];
    const std::string name =
        args.positional.size() > 3 ? args.positional[3] : "";
    const serve::Frame reply = client.load(spec, name, args.map_fanin);
    std::cout << "loaded handle=" << reply.arg("handle").value_or("?")
              << " fingerprint=" << reply.arg("fingerprint").value_or("?")
              << " gates=" << reply.arg("gates").value_or("?")
              << " depth=" << reply.arg("depth").value_or("?") << "\n";
    return 0;
  }
  if (verb == "stats") {
    const serve::Frame reply = client.stats();
    report::Table t({"counter", "value"});
    for (const auto& [key, value] : reply.args) t.add_row({key, value});
    std::cout << t.to_text();
    return 0;
  }
  if (verb == "metrics") {
    const serve::Frame reply = client.metrics();
    std::cout << reply.payload;
    return 0;
  }
  if (verb == "evict") {
    const std::string handle =
        args.positional.size() > 2 ? args.positional[2] : "";
    const serve::Frame reply = client.evict(handle);
    std::cout << "evicted " << reply.arg("evicted").value_or("0")
              << " handle(s)\n";
    return 0;
  }
  if (verb == "ping") {
    (void)client.ping();
    std::cout << "pong\n";
    return 0;
  }
  if (verb == "shutdown") {
    (void)client.shutdown_server();
    std::cout << "server shutting down\n";
    return 0;
  }
  std::cerr << "error: unknown client verb '" << verb << "'\n";
  return usage();
}

int cmd_gen(const Args& args) {
  const gen::BenchmarkSpec spec = gen::find_benchmark(args.positional[1]);
  netlist::Circuit circuit = spec.build();
  // Structure-changing emit modes, applied in redundancy-then-rewrite order:
  // --tmr triplicates with a majority voter, --strash merges structurally
  // identical gates. Both preserve the logical function, which is exactly
  // what `enbound cec` is expected to prove.
  if (args.gen_tmr) circuit = ft::nmr_transform(circuit).circuit;
  if (args.gen_strash) circuit = synth::strash(circuit);
  if (args.out.empty()) {
    netlist::write_bench(circuit, std::cout);
  } else {
    netlist::write_bench_file(circuit, args.out);
    std::cout << "wrote " << args.out << " ("
              << netlist::compute_stats(circuit).num_gates << " gates)\n";
  }
  return 0;
}

int cmd_list() {
  report::Table t({"name", "family", "inputs", "gates"});
  for (const std::vector<gen::BenchmarkSpec>& suite :
       {gen::standard_suite(), gen::scale_suite()}) {
    for (const gen::BenchmarkSpec& spec : suite) {
      const auto c = spec.build();
      t.add_row({spec.name, spec.family, std::to_string(c.num_inputs()),
                 std::to_string(c.gate_count())});
    }
  }
  std::cout << t.to_text();
  return 0;
}

int run_command(const std::string& command, const Args& args) {
  if (command == "list") return cmd_list();
  if (command == "serve") return cmd_serve(args);
  if (command == "client") return cmd_client(args);
  if (args.positional.size() < 2) return usage();
  if (command == "profile") return cmd_profile(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "batch") return cmd_batch(args);
  if (command == "faultsim") return cmd_faultsim(args);
  if (command == "cec") return cmd_cec(args);
  if (command == "lint") return cmd_lint(args);
  if (command == "harden") return cmd_harden(args);
  if (command == "gen") return cmd_gen(args);
  return usage();
}

// Dumps the recorded spans as Chrome trace-event JSON. Runs after the
// command finished (success or error), so every evaluation thread has
// stopped and the recorder is quiescent.
int write_trace_file(const std::string& path, int code) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.disable();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open trace file: " << path << "\n";
    return code == 0 ? kExitProcessing : code;
  }
  recorder.write_chrome_trace(out);
  std::cout << "wrote " << path << " (" << recorder.recorded() << " spans";
  if (recorder.dropped() > 0) {
    std::cout << ", " << recorder.dropped() << " dropped";
  }
  std::cout << ")\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args =
      cli::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!args.ok()) {
    std::cerr << "error: " << args.error << "\n";
    (void)usage();
    return kExitProcessing;
  }
  if (args.positional.empty()) return usage();
  const std::string& command = args.positional[0];
  if (!cli::is_known_command(command)) {
    std::cerr << "error: unknown command '" << command << "' (valid:";
    for (const std::string& name : cli::known_commands()) {
      std::cerr << ' ' << name;
    }
    std::cerr << ")\n";
    return kExitProcessing;
  }
  if (!args.trace.empty()) obs::TraceRecorder::global().enable();
  int code = 0;
  try {
    code = run_command(command, args);
  } catch (const MissingInputError& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitMissingInput;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    code = kExitProcessing;
  }
  if (!args.trace.empty()) code = write_trace_file(args.trace, code);
  return code;
}
