// Workload fault-nodrop: a faultsim-equivalent campaign on mult16 with the
// CLI's default mapping (max fanin 3, 2432 collapsed classes), 8192 random
// patterns, no dropping, 64 lanes. The per-pattern sweep kernel does
// almost all the work, so this is where a faster kernel must show.
//
// Untraced: run_campaign repeated for the time budget. Traced: the same
// campaign timed with tracing on, then decomposed through the public shard
// API (universe, campaign_shard_counts per shard through
// exec::for_each_shard, finalize_campaign) on the pool and serially, plus
// the fault-free LogicSim cost over the same pattern words.
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "sim/logic_sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace enb;

constexpr const char* kCircuit = "mult16";
constexpr int kMapFanin = 3;
constexpr std::uint64_t kPatterns = 8192;
constexpr std::uint64_t kClasses = 2432;
constexpr std::uint64_t kPasses = 319488;  // 8192 x (38 lane blocks + golden)
constexpr int kSetups = 15;

struct Setup {
  analysis::CompiledCircuit circuit;
  double total_s = 0.0;
  double gen_s = 0.0;
  double parse_s = 0.0;
  double compile_s = 0.0;
  double universe_s = 0.0;
  std::size_t classes = 0;
};

// Build the suite circuit, round-trip it through .bench text, compile and
// map it, and build its fault universe once.
Setup set_up() {
  Setup s;
  const auto start = Clock::now();
  auto t = Clock::now();
  const netlist::Circuit built = gen::find_benchmark(kCircuit).build();
  s.gen_s = seconds_since(t);
  const std::string text = netlist::write_bench_string(built);
  t = Clock::now();
  netlist::Circuit parsed = netlist::read_bench_string(text, kCircuit);
  s.parse_s = seconds_since(t);
  t = Clock::now();
  s.circuit = analysis::compile(std::move(parsed)).mapped(kMapFanin);
  s.compile_s = seconds_since(t);
  t = Clock::now();
  s.classes = fault::FaultUniverse::build(s.circuit.circuit()).num_classes();
  s.universe_s = seconds_since(t);
  s.total_s = seconds_since(start);
  return s;
}

fault::CampaignOptions campaign_options(std::uint64_t seed) {
  fault::CampaignOptions options;
  options.patterns = kPatterns;
  options.seed = derive_seed(seed, 0);
  options.drop = false;
  options.lanes = fault::LaneWidth::k64;
  return options;
}

// The timed loop: run_campaign on the pool until `seconds` have passed
// (at least `min_reps` times). Every result must equal `reference`.
std::vector<double> campaign_loop(Report& report,
                                  const netlist::Circuit& circuit,
                                  const fault::CampaignOptions& options,
                                  const fault::FaultCampaignResult& reference,
                                  double seconds, int min_reps,
                                  double* elapsed_out) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         seconds_since(start) < seconds) {
    const auto t = Clock::now();
    const fault::FaultCampaignResult result = fault::run_campaign(
        circuit, nullptr, options, exec::Parallelism::global_pool());
    times.push_back(seconds_since(t));
    report.operations(1);
    report.check("campaign repeats the reference result", result == reference);
  }
  if (elapsed_out != nullptr) *elapsed_out = seconds_since(start);
  return times;
}

struct Decomposition {
  fault::FaultCampaignResult result;
  double wall_s = 0.0;
  double universe_s = 0.0;
  double finalize_s = 0.0;
  std::vector<double> shard_s;
  std::size_t threads = 0;
};

// run_campaign spelled out through the public shard API, timing each part.
Decomposition decompose(const netlist::Circuit& circuit,
                        const fault::CampaignOptions& options,
                        exec::Parallelism how) {
  Decomposition d;
  const auto start = Clock::now();
  auto t = Clock::now();
  const fault::FaultUniverse universe = fault::FaultUniverse::build(
      circuit, options.collapse, options.prune_untestable);
  d.universe_s = seconds_since(t);
  const exec::ShardPlan plan = fault::campaign_shard_plan(circuit, options);
  fault::CampaignCounts total(universe.num_classes());
  d.shard_s.assign(plan.num_shards(), 0.0);
  std::set<std::thread::id> threads;
  std::mutex mutex;
  exec::for_each_shard(
      plan,
      [&](const exec::Shard& shard) {
        const auto shard_start = Clock::now();
        const fault::CampaignCounts local = fault::campaign_shard_counts(
            circuit, circuit, universe, options, shard);
        const double elapsed = seconds_since(shard_start);
        const std::lock_guard<std::mutex> lock(mutex);
        total.merge(local);
        d.shard_s[shard.index] = elapsed;
        threads.insert(std::this_thread::get_id());
      },
      how);
  t = Clock::now();
  d.result =
      fault::finalize_campaign(circuit, circuit, universe, options, total);
  d.finalize_s = seconds_since(t);
  d.wall_s = seconds_since(start);
  d.threads = threads.size();
  return d;
}

// Fault-free LogicSim over the campaign's pattern words: one broadcast
// evaluation per pattern, as the campaign's golden pass does. Only the
// eval calls are timed.
double good_machine_seconds(const netlist::Circuit& circuit,
                            const fault::CampaignOptions& options) {
  const exec::ShardPlan plan = fault::campaign_shard_plan(circuit, options);
  sim::LogicSim golden(circuit);
  std::vector<sim::Word> words(circuit.num_inputs());
  double seconds = 0.0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (const std::vector<bool>& pattern : fault::shard_pattern_bits(
             circuit.num_inputs(), options, plan.shard(s))) {
      for (std::size_t b = 0; b < pattern.size(); ++b) {
        words[b] = pattern[b] ? sim::kAllOnes : 0;
      }
      const auto t = Clock::now();
      golden.eval(words);
      seconds += seconds_since(t);
    }
  }
  return seconds;
}

void check_reference(Report& report, const fault::FaultCampaignResult& r) {
  report.check("fault-nodrop classes == 2432", r.classes == kClasses,
               std::to_string(r.classes));
  report.check("fault-nodrop sim passes == 319488", r.sim_passes == kPasses,
               std::to_string(r.sim_passes));
  report.check("fault-nodrop patterns == 8192", r.patterns == kPatterns,
               std::to_string(r.patterns));
}

}  // namespace

void run_fault_nodrop(const Options& options, Report& report) {
  report.context("workload_shape",
                 "mult16 mapped K=3, 8192 random patterns, no drop, 64 lanes");
  std::vector<double> setup_s, gen_s, parse_s, compile_s, universe_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = set_up();
    setup_s.push_back(setup.total_s);
    gen_s.push_back(setup.gen_s);
    parse_s.push_back(setup.parse_s);
    compile_s.push_back(setup.compile_s);
    universe_s.push_back(setup.universe_s);
    report.check("universe has 2432 classes", setup.classes == kClasses,
                 std::to_string(setup.classes));
  }
  const netlist::Circuit& circuit = setup.circuit.circuit();
  const fault::CampaignOptions campaign = campaign_options(options.seed);
  const double pairs = static_cast<double>(kClasses * kPatterns);

  // The reference result: the first pooled campaign, checked against the
  // pinned shape. It also warms the pool and the allocator.
  const fault::FaultCampaignResult reference = fault::run_campaign(
      circuit, nullptr, campaign, exec::Parallelism::global_pool());
  report.operations(1);
  check_reference(report, reference);

  if (!options.trace) {
    report.context("concurrency",
                   std::to_string(probe_pool_concurrency()) +
                       " threads ran pool tasks (probe)");
    double elapsed = 0.0;
    const std::vector<double> run_s = campaign_loop(
        report, circuit, campaign, reference, options.seconds, 3, &elapsed);
    std::vector<double> evals;
    for (const double t : run_s) evals.push_back(pairs / t);
    report.end_to_end("setup_s", "s", false, setup_s,
                      "gen + parse + compile/map + universe");
    report.end_to_end("run_s", "s", false, run_s, "one run_campaign");
    report.end_to_end("req_per_s", "1/s", true,
                      {static_cast<double>(run_s.size()) / elapsed},
                      "campaigns completed per second");
    report.peak_rss();
    report.extra("fault_evals_per_s", "1/s", true, evals,
                 "(pattern, class) pairs per second");
    return;
  }

  report.layer_samples("gen.build_s", "s", gen_s, "setup");
  report.layer_samples("netlist.parse_s", "s", parse_s, "setup");
  report.layer_samples("analysis.compile_s", "s", compile_s,
                       "compile + map, setup");
  report.layer_samples("fault.universe_s", "s", universe_s, "setup");

  const std::vector<double> untraced = campaign_loop(
      report, circuit, campaign, reference, options.seconds / 2, 1, nullptr);
  obs::TraceRecorder::global().enable();
  double traced_elapsed = 0.0;
  std::vector<double> traced;
  {
    const LayerCounters counters;
    traced = campaign_loop(report, circuit, campaign, reference,
                           options.seconds / 2, 1, &traced_elapsed);
    report.layer_counters(counters, static_cast<double>(traced.size()));
  }
  report.layer("obs.trace_overhead_frac", "fraction",
               median(traced) / median(untraced) - 1.0,
               "traced run_s / untraced run_s - 1");

  const Decomposition pooled =
      decompose(circuit, campaign, exec::Parallelism::global_pool());
  report.operations(1);
  report.check("universe + shards + finalize == run_campaign",
               pooled.result == reference);
  const Decomposition serial =
      decompose(circuit, campaign, exec::Parallelism::serial());
  report.operations(1);
  report.check("serial result == pooled result", serial.result == reference);
  const double good_s = good_machine_seconds(circuit, campaign);
  obs::TraceRecorder::global().disable();

  double busy = 0.0;
  double serial_busy = 0.0;
  for (const double s : pooled.shard_s) busy += s;
  for (const double s : serial.shard_s) serial_busy += s;
  std::vector<double> shard_ms;
  for (const double s : pooled.shard_s) shard_ms.push_back(s * 1e3);
  const Summary shards = summarize(shard_ms);
  report.context("concurrency", std::to_string(pooled.threads) +
                                    " threads ran campaign shards");

  report.layer("fault.shard_busy_s", "s", busy, "sum of pooled shard times");
  report.layer("fault.shard_p50_ms", "ms", shards.median,
               "n=" + std::to_string(shards.n) + " shards");
  report.layer("fault.shard_max_ms", "ms", shards.max,
               "slowest shard of n=" + std::to_string(shards.n));
  report.layer("fault.finalize_s", "s", pooled.finalize_s);
  report.layer("fault.passes_per_busy_s", "1/s",
               static_cast<double>(pooled.result.sim_passes) / busy);
  report.layer("sim.good_machine_s", "s", good_s,
               "estimate: fault-free LogicSim over the same pattern words");
  report.layer("exec.concurrency", "threads",
               static_cast<double>(pooled.threads),
               "distinct threads that ran shards");
  report.layer("exec.busy_frac", "fraction",
               busy / (pooled.wall_s * static_cast<double>(pooled.threads)),
               "shard busy / (run_s x concurrency)");
  report.layer("exec.speedup", "x", serial.wall_s / pooled.wall_s,
               "serial " + std::to_string(serial.wall_s) + " s / pooled");
  report.layer("exec.shard_inflation", "x", busy / serial_busy,
               "pooled shard busy / serial shard busy");
}

}  // namespace perfbench
