// Workload harden-sweep: a full pareto_sweep of c432 with 1024 campaign
// patterns (16 candidates, 15 frontier points at the default seed). The
// work is spread over many small circuits: transforms, CEC, lint, universe
// builds with untestable pruning, profile extraction for the energy bound,
// and batch scheduling.
//
// Untraced: pareto_sweep repeated for the time budget. Traced: the same
// sweep with tracing on (CEC time read from the existing obs histogram),
// the per-candidate steps replayed through their public functions, and one
// serial sweep.
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "fault/untestable.hpp"
#include "gen/iscas.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace enb;

constexpr std::uint64_t kPatterns = 1024;
constexpr std::size_t kCandidates = 16;
constexpr int kSetups = 15;

struct Setup {
  analysis::CompiledCircuit base;
  double total_s = 0.0;
  double gen_s = 0.0;
  double parse_s = 0.0;
  double compile_s = 0.0;
};

// Build c432, round-trip it through .bench text, compile it, and extract
// the base profile the sweep's energy bound reuses.
Setup set_up() {
  Setup s;
  const auto start = Clock::now();
  auto t = Clock::now();
  const netlist::Circuit built = gen::c432();
  s.gen_s = seconds_since(t);
  const std::string text = netlist::write_bench_string(built);
  t = Clock::now();
  netlist::Circuit parsed = netlist::read_bench_string(text, "c432");
  s.parse_s = seconds_since(t);
  t = Clock::now();
  s.base = analysis::compile(std::move(parsed));
  s.compile_s = seconds_since(t);
  (void)s.base.profile(core::ProfileOptions{},
                       exec::Parallelism::global_pool());
  s.total_s = seconds_since(start);
  return s;
}

harden::SweepOptions sweep_options(std::uint64_t seed) {
  harden::SweepOptions options;
  options.campaign.patterns = kPatterns;
  options.campaign.seed = derive_seed(seed, 1);
  return options;
}

void check_result(Report& report, const harden::ParetoResult& r) {
  report.check("harden-sweep has 16 candidates",
               r.candidates.size() == kCandidates,
               std::to_string(r.candidates.size()));
  report.check("harden-sweep refuted == 0", r.refuted == 0,
               std::to_string(r.refuted));
  report.check("harden-sweep lint errors == 0", r.lint_errors == 0,
               std::to_string(r.lint_errors));
  bool all_proved = true;
  for (const harden::Candidate& c : r.candidates) {
    all_proved = all_proved && c.equivalent && c.lint_clean;
  }
  report.check("every candidate proved equivalent and lint-clean", all_proved);
  report.check("frontier is non-empty", !r.frontier.empty());
}

std::vector<double> sweep_loop(Report& report,
                               const analysis::CompiledCircuit& base,
                               const harden::SweepOptions& options,
                               const harden::ParetoResult& reference,
                               double seconds, int min_reps,
                               double* elapsed_out) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         seconds_since(start) < seconds) {
    const auto t = Clock::now();
    const harden::ParetoResult result =
        harden::pareto_sweep(base, options, exec::Parallelism::global_pool());
    times.push_back(seconds_since(t));
    report.operations(1);
    report.check("sweep repeats the reference result", result == reference);
  }
  if (elapsed_out != nullptr) *elapsed_out = seconds_since(start);
  return times;
}

struct Replay {
  double transform_s = 0.0;
  double lint_s = 0.0;
  double universe_s = 0.0;
  double untestable_s = 0.0;
  double profile_s = 0.0;
  bool lint_clean = true;
};

// The per-candidate steps of a sweep, called one by one through their
// public functions (serially): transform, lint, fault universe and
// untestable proof for the base and every candidate, and the profile
// extraction of every candidate (the base profile is cached in setup).
Replay replay_candidates(const netlist::Circuit& base,
                         const harden::SweepOptions& options) {
  Replay r;
  const fault::FaultCampaignResult base_campaign = fault::run_campaign(
      base, nullptr, options.campaign, exec::Parallelism::global_pool());
  const std::vector<std::size_t> ranking =
      harden::rank_output_cones(base, base_campaign);
  const auto grade = [&](const netlist::Circuit& circuit) {
    auto t = Clock::now();
    const fault::FaultUniverse universe = fault::FaultUniverse::build(
        circuit, options.campaign.collapse, false);
    r.universe_s += seconds_since(t);
    t = Clock::now();
    (void)fault::find_untestable(circuit, universe);
    r.untestable_s += seconds_since(t);
  };
  grade(base);
  for (const harden::TransformOptions& config :
       harden::enumerate_candidates(base.num_outputs(), options)) {
    auto t = Clock::now();
    harden::HardenedCircuit variant =
        harden::harden_transform(base, config, ranking);
    r.transform_s += seconds_since(t);
    t = Clock::now();
    r.lint_clean = harden::lint_hardened(variant).clean() && r.lint_clean;
    r.lint_s += seconds_since(t);
    grade(variant.circuit);
    const analysis::CompiledCircuit handle =
        analysis::compile(std::move(variant.circuit));
    t = Clock::now();
    (void)handle.profile(core::ProfileOptions{}, exec::Parallelism::serial());
    r.profile_s += seconds_since(t);
  }
  return r;
}

}  // namespace

void run_harden_sweep(const Options& options, Report& report) {
  report.context("workload_shape",
                 "c432 (unmapped), full style x granularity x K sweep, "
                 "1024 campaign patterns");
  std::vector<double> setup_s, gen_s, parse_s, compile_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = set_up();
    setup_s.push_back(setup.total_s);
    gen_s.push_back(setup.gen_s);
    parse_s.push_back(setup.parse_s);
    compile_s.push_back(setup.compile_s);
  }
  const harden::SweepOptions sweep = sweep_options(options.seed);

  // The reference result: the first pooled sweep (also the warm-up).
  const harden::ParetoResult reference =
      harden::pareto_sweep(setup.base, sweep, exec::Parallelism::global_pool());
  report.operations(1);
  check_result(report, reference);
  report.context("frontier", std::to_string(reference.frontier.size()) +
                                 " frontier points over " +
                                 std::to_string(reference.candidates.size()) +
                                 " candidates");
  report.context("concurrency", std::to_string(probe_pool_concurrency()) +
                                    " threads ran pool tasks (probe)");

  if (!options.trace) {
    double elapsed = 0.0;
    const std::vector<double> run_s = sweep_loop(
        report, setup.base, sweep, reference, options.seconds, 3, &elapsed);
    std::vector<double> rate;
    for (const double t : run_s) {
      rate.push_back(static_cast<double>(kCandidates) / t);
    }
    report.end_to_end("setup_s", "s", false, setup_s,
                      "gen + parse + compile + base profile");
    report.end_to_end("run_s", "s", false, run_s, "one pareto_sweep");
    report.end_to_end("req_per_s", "1/s", true,
                      {static_cast<double>(run_s.size()) / elapsed},
                      "sweeps completed per second");
    report.peak_rss();
    report.extra("candidates_per_s", "1/s", true, rate,
                 "candidates per second");
    return;
  }

  report.layer_samples("gen.build_s", "s", gen_s, "setup");
  report.layer_samples("netlist.parse_s", "s", parse_s, "setup");
  report.layer_samples("analysis.compile_s", "s", compile_s,
                       "setup");

  const std::vector<double> untraced = sweep_loop(
      report, setup.base, sweep, reference, options.seconds / 2, 1, nullptr);
  obs::TraceRecorder::global().enable();
  std::vector<double> traced;
  double traced_elapsed = 0.0;
  {
    const LayerCounters counters;
    const HistogramDelta cec("harden-cec-seconds");
    const CounterDelta candidates("harden-candidates-total");
    traced = sweep_loop(report, setup.base, sweep, reference,
                        options.seconds / 2, 1, &traced_elapsed);
    const double runs = static_cast<double>(traced.size());
    report.layer_counters(counters, runs);
    report.layer("analysis.cec_s", "s", cec.delta().sum / runs,
                 "per sweep, harden-cec-seconds sum");
    report.layer("harden.candidates", "count",
                 static_cast<double>(candidates.delta()) / runs,
                 "per sweep, harden-candidates-total delta");
    report.layer("exec.busy_frac", "fraction",
                 counters.task_seconds.delta().sum /
                     (traced_elapsed * (pool_workers() + 1.0)),
                 "exec-task-seconds / (elapsed x drainers)");
  }
  report.layer("obs.trace_overhead_frac", "fraction",
               median(traced) / median(untraced) - 1.0,
               "traced run_s / untraced run_s - 1");

  const Replay replay = replay_candidates(setup.base.circuit(), sweep);
  report.check("replayed candidates lint clean", replay.lint_clean);
  report.layer("harden.transform_s", "s", replay.transform_s,
               "per sweep, harden_transform replayed");
  report.layer("analysis.lint_s", "s", replay.lint_s,
               "per sweep, lint_hardened replayed");
  report.layer("fault.universe_s", "s", replay.universe_s,
               "per sweep, FaultUniverse::build replayed for 16 circuits");
  report.layer("fault.untestable_s", "s", replay.untestable_s,
               "per sweep, find_untestable replayed for 16 circuits");
  // The batch's extraction histogram times each extraction from batch
  // start (latency, not work), so the busy figure comes from the replay.
  report.layer("analysis.profile_s", "s", replay.profile_s,
               "per sweep, 15 candidate extractions replayed serially");

  // The serial arm: same result, and the attribution of a sweep's wall
  // clock on one thread.
  const HistogramDelta tasks("exec-task-seconds");
  const HistogramDelta cec("harden-cec-seconds");
  const auto t = Clock::now();
  const harden::ParetoResult serial =
      harden::pareto_sweep(setup.base, sweep, exec::Parallelism::serial());
  const double serial_s = seconds_since(t);
  obs::TraceRecorder::global().disable();
  report.operations(1);
  report.check("serial sweep == pooled sweep", serial == reference);
  const double attributed = tasks.delta().sum + cec.delta().sum +
                            replay.transform_s + replay.lint_s +
                            replay.universe_s + replay.untestable_s;
  report.layer("harden.unattributed_s", "s", serial_s - attributed,
               "estimate: serial sweep - pool tasks - CEC - replayed parts");
  report.layer("exec.speedup", "x", serial_s / median(traced),
               "serial sweep / traced pooled sweep");
  report.layer("exec.concurrency", "threads",
               static_cast<double>(probe_pool_concurrency()),
               "probe: distinct threads running pool tasks");
}

}  // namespace perfbench
