#include "fault/campaign.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"
#include "sim/reliability.hpp"

namespace enb::fault {

namespace {

using netlist::Circuit;
using sim::Word;

// Campaign observability: simulation passes (the normalized work unit
// dropping and sampling exist to shrink), block evaluations spent
// propagating flipped stems (the kernel's real faulty-machine work; one
// evaluation covers a whole block of up to 512 patterns), shards graded,
// classes retired by fault dropping, and lane occupancy in 64-class units
// (active class slots vs provisioned ones; dense until dropping thins the
// survivors). Counters only — CampaignCounts and the result path are
// untouched.
struct FaultMetrics {
  obs::Counter& passes =
      obs::Registry::global().counter("fault-sweep-passes-total");
  obs::Counter& events =
      obs::Registry::global().counter("fault-sweep-events-total");
  obs::Counter& shards =
      obs::Registry::global().counter("fault-sweep-shards-total");
  obs::Counter& dropped =
      obs::Registry::global().counter("fault-dropped-classes-total");
  obs::Counter& lane_slots =
      obs::Registry::global().counter("fault-lane-slots-total");
  obs::Counter& lane_slots_active =
      obs::Registry::global().counter("fault-lane-slots-active-total");
};

FaultMetrics& fault_metrics() {
  static FaultMetrics metrics;
  return metrics;
}

// Domain separator for the sampling stream, so sampled class choices never
// correlate with the pattern streams drawn from the same seed.
constexpr std::uint64_t kSampleSalt = 0x5A3D1EB70C4FA551ull;

// Every path that shifts by the logical input count checks it here first.
void check_exhaustive_cap(std::size_t logical_inputs) {
  if (logical_inputs > static_cast<std::size_t>(kMaxExhaustiveCampaignInputs)) {
    throw ExhaustiveCapError(logical_inputs);
  }
}

std::uint64_t pattern_total(const Circuit& golden,
                            const CampaignOptions& options) {
  if (options.exhaustive) {
    check_exhaustive_cap(golden.num_inputs());
    return std::uint64_t{1} << golden.num_inputs();
  }
  return options.patterns;
}

// Logical input bits of pattern `p` of a word-major block.
std::vector<bool> unpack_pattern(std::span<const Word> inputs,
                                 std::size_t num_inputs, std::size_t p) {
  std::vector<bool> row(num_inputs);
  const Word* word = inputs.data() + (p / sim::kWordBits) * num_inputs;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    row[i] = ((word[i] >> (p % sim::kWordBits)) & 1) != 0;
  }
  return row;
}

// Campaign blocks: consecutive shards graded together, 512 / shard_patterns
// to a block, so one kernel call holds them all.
std::size_t shards_per_block(const exec::ShardPlan& plan) {
  return sim::kBlockPatterns / plan.shard_size();
}

std::size_t block_count(const exec::ShardPlan& plan) {
  const std::size_t per_block = shards_per_block(plan);
  return (plan.num_shards() + per_block - 1) / per_block;
}

// A campaign that retires classes (campaign.hpp, "Tasks") cuts the
// kernel's active list into at most this many slices. Each slice runs the
// good machine again on every block it visits, so more slices pay only
// where classes stay undetected for many blocks: on mapped mult8 TMR at
// 16384 patterns, where almost no class is ever detected, 8 slices ran at
// 0.98x and 16 at 0.83x the speed of one-block tasks.
constexpr std::size_t kMaxRetiringSlices = 8;

// What one task grades: the active-list positions [first, end) of slice
// `slice`, over blocks [first_block, end_block) of `plan` (`per_block`
// shards to a block) in ascending order. With `retire`, a class leaves the
// slice after the first block that detects it, and the task stops once the
// slice is empty. Slice 0 accounts the passes of every shard of its blocks.
struct TaskScope {
  const exec::ShardPlan* plan = nullptr;
  std::size_t per_block = 1;
  std::size_t first_block = 0;
  std::size_t end_block = 0;
  std::size_t slice = 0;
  std::size_t first = 0;
  std::size_t end = 0;
  bool retire = false;

  [[nodiscard]] std::vector<exec::Shard> shards_of(std::size_t block) const {
    const std::size_t stop =
        std::min(plan->num_shards(), (block + 1) * per_block);
    std::vector<exec::Shard> shards;
    for (std::size_t s = block * per_block; s < stop; ++s) {
      shards.push_back(plan->shard(s));
    }
    return shards;
  }
};

// Grades the active-list `positions` on the patterns of consecutive
// `shards`, through the campaign's shared kernel as one block (at most 512
// patterns) with each shard a segment of it; each shard keeps its own
// pattern stream. The golden circuit is simulated once per word for the
// expected outputs, unless it is the circuit itself, whose good machine
// the kernel already has. A non-null `rows` gets the block's pattern and
// detection rows.
PatternFaultSim::BlockResult grade_block(
    const Circuit& circuit, const Circuit& golden,
    const FaultUniverse& universe, const PatternFaultSim& kernel,
    const CampaignOptions& options, std::span<const exec::Shard> shards,
    std::span<const std::uint32_t> positions, DetectionTable* rows) {
  const std::size_t block_begin = shards.front().begin;
  const int count = static_cast<int>(shards.back().end - block_begin);
  const auto words = static_cast<std::size_t>(sim::words_for(count));
  const std::size_t num_inputs = golden.num_inputs();
  const std::size_t num_outputs = golden.num_outputs();
  std::vector<Word> inputs(words * num_inputs, 0);
  for (const exec::Shard& shard : shards) {
    pack_shard_patterns(num_inputs, options, shard, inputs,
                        shard.begin - block_begin);
  }
  std::vector<Word> expected;
  if (&golden != &circuit) {
    sim::LogicSim golden_sim(golden);
    for (std::size_t k = 0; k < words; ++k) {
      golden_sim.eval(
          std::span<const Word>(inputs).subspan(k * num_inputs, num_inputs));
      for (std::size_t o = 0; o < num_outputs; ++o) {
        expected.push_back(golden_sim.value(golden.outputs()[o]));
      }
    }
  }
  PatternFaultSim::BlockResult block =
      kernel.detect_block(inputs, count, expected,
                          static_cast<int>(options.shard_patterns), positions);
  if (rows != nullptr) {
    const std::size_t row_words =
        (universe.num_classes() + sim::kWordBits - 1) / sim::kWordBits;
    for (int q = 0; q < count; ++q) {
      rows->patterns[block_begin + q] = unpack_pattern(inputs, num_inputs, q);
      rows->detected[block_begin + q].assign(row_words, 0);
    }
    for (const PatternFaultSim::Detection& hit : block.detections) {
      for (int q = hit.patterns.find_first(0); q < count;
           q = hit.patterns.find_first(q + 1)) {
        rows->detected[block_begin + q][hit.cls / sim::kWordBits] |=
            Word{1} << (hit.cls % sim::kWordBits);
      }
    }
  }
  return block;
}

// Drops the positions `detections` name from `positions`; both ascend.
void retire_detected(std::vector<std::uint32_t>& positions,
                     std::span<const PatternFaultSim::Detection> detections) {
  auto hit = detections.begin();
  std::size_t kept = 0;
  for (const std::uint32_t position : positions) {
    if (hit != detections.end() && hit->position == position) {
      ++hit;
      continue;
    }
    positions[kept++] = position;
  }
  positions.resize(kept);
}

// One campaign task over `scope`, traced as one fault-sweep-shard span.
//
// First detections are per shard: the kernel reports each class's lowest
// detecting pattern and output in every shard's own bit range of a block.
// The task records a class's lowest hit in the first block that detects
// it, so retiring the class after that block changes no record;
// CampaignCounts::merge takes cross-task minima.
//
// Passes stay in the 64-class-sweep unit the contract is written in: per
// pattern, one golden pass plus one per 64 classes still active at that
// pattern, where under fault dropping a class stops being active after its
// shard-local first detection. They are counted per shard from the first
// detections, not from the kernel's work, so they are the same for any
// kernel and any task grouping, and dropping changes nothing else.
// Without dropping they need no detections, so slice 0 counts them for
// every block, also those it no longer grades.
CampaignCounts sweep_task(const Circuit& circuit, const Circuit& golden,
                          const FaultUniverse& universe,
                          const PatternFaultSim& kernel,
                          const CampaignOptions& options,
                          const TaskScope& scope, DetectionTable* rows) {
  const obs::Span span(
      "fault-sweep-shard", {},
      "slice=" + std::to_string(scope.slice) + " blocks=" +
          std::to_string(scope.first_block) + ".." +
          std::to_string(scope.end_block - 1));
  CampaignCounts counts(universe.num_classes());
  std::vector<std::uint32_t> positions(scope.end - scope.first);
  std::iota(positions.begin(), positions.end(),
            static_cast<std::uint32_t>(scope.first));
  std::uint64_t events = 0;
  std::uint64_t obs_shards = 0;
  std::uint64_t obs_slots = 0;
  std::uint64_t obs_slots_active = 0;
  std::uint64_t obs_dropped = 0;
  for (std::size_t b = scope.first_block; b < scope.end_block; ++b) {
    const bool grade = !scope.retire || !positions.empty();
    if (!grade && scope.slice != 0) break;
    const std::vector<exec::Shard> shards = scope.shards_of(b);
    const std::size_t block_begin = shards.front().begin;
    // first_hits[i]: classes whose shard-local first detection is block
    // pattern i.
    std::vector<std::uint64_t> first_hits(shards.back().end - block_begin, 0);
    if (grade) {
      const PatternFaultSim::BlockResult block =
          grade_block(circuit, golden, universe, kernel, options, shards,
                      positions, rows);
      events += block.events;
      for (const PatternFaultSim::Detection& hit : block.detections) {
        const std::span<const PatternFaultSim::FirstHit> firsts =
            block.first_hits_of(hit);
        if (counts.first_pattern[hit.cls] == kNotDetected) {
          counts.first_pattern[hit.cls] = block_begin + firsts.front().pattern;
          counts.first_output[hit.cls] = firsts.front().output;
        }
        for (const PatternFaultSim::FirstHit& first : firsts) {
          ++first_hits[first.pattern];
        }
      }
      if (scope.retire) retire_detected(positions, block.detections);
    }
    if (scope.slice != 0) continue;
    // Passes and lane slots per pattern of each shard, as described above.
    obs_shards += shards.size();
    for (const exec::Shard& shard : shards) {
      std::uint64_t still_active = kernel.num_active();
      for (std::size_t q = shard.begin; q < shard.end; ++q) {
        const std::uint64_t blocks =
            (still_active + sim::kWordBits - 1) / sim::kWordBits;
        counts.passes += 1 + blocks;
        obs_slots += blocks * sim::kWordBits;
        obs_slots_active += still_active;
        if (options.drop) {
          const std::uint64_t hits = first_hits[q - block_begin];
          still_active -= hits;
          obs_dropped += hits;
        }
      }
    }
  }
  // The metrics are published once per task.
  FaultMetrics& metrics = fault_metrics();
  metrics.shards.add(obs_shards);
  metrics.passes.add(counts.passes);
  metrics.events.add(events);
  metrics.lane_slots.add(obs_slots);
  metrics.lane_slots_active.add(obs_slots_active);
  if (obs_dropped > 0) metrics.dropped.add(obs_dropped);
  return counts;
}

// finalize_campaign, given the number of sampled classes.
FaultCampaignResult finalize(const Circuit& circuit, const Circuit& golden,
                             const FaultUniverse& universe,
                             const CampaignOptions& options,
                             std::uint64_t sampled,
                             const CampaignCounts& counts) {
  FaultCampaignResult result;
  result.nets = universe.num_nets();
  result.sites = universe.num_sites();
  result.classes = universe.num_classes();
  result.untestable = universe.num_untestable();
  result.sampled = sampled;
  result.patterns = pattern_total(golden, options);
  result.sim_passes = counts.passes;
  result.first_detect_pattern = counts.first_pattern;
  result.first_detect_output = counts.first_output;
  std::set<std::uint32_t> first_detectors;
  for (std::size_t c = 0; c < counts.first_pattern.size(); ++c) {
    if (counts.first_pattern[c] != kNotDetected) {
      ++result.detected;
      first_detectors.insert(counts.first_output[c]);
    }
  }
  result.detect_outputs = first_detectors.size();
  result.coverage = result.sampled == 0
                        ? 0.0
                        : static_cast<double>(result.detected) /
                              static_cast<double>(result.sampled);
  // A pruned full run still grades every *testable* class exactly; only a
  // genuine sample (fewer than the testable universe) earns an interval.
  if (result.sampled < result.classes - result.untestable) {
    // The sample is a deterministic subset, graded exactly; the Wilson
    // interval prices what it says about the rest of the universe.
    const sim::ReliabilityResult wilson =
        sim::wilson_interval(result.detected, result.sampled);
    result.coverage_ci_low = wilson.ci_low;
    result.coverage_ci_high = wilson.ci_high;
  } else {
    result.coverage_ci_low = result.coverage;
    result.coverage_ci_high = result.coverage;
  }
  result.masked_fraction = 1.0 - result.coverage;
  result.gates = circuit.gate_count();
  result.golden_gates = golden.gate_count();
  result.gate_overhead = result.golden_gates == 0
                             ? 1.0
                             : static_cast<double>(result.gates) /
                                   static_cast<double>(result.golden_gates);
  // Cost of masking: infinite when nothing is masked (renders as JSON null).
  result.overhead_per_masked = result.gate_overhead / result.masked_fraction;
  return result;
}

}  // namespace

ExhaustiveCapError::ExhaustiveCapError(std::size_t logical_inputs)
    : std::invalid_argument(
          "fault campaign: exhaustive mode supports at most " +
          std::to_string(kMaxExhaustiveCampaignInputs) +
          " logical inputs, got " + std::to_string(logical_inputs)),
      logical_inputs_(logical_inputs) {}

void validate_campaign_inputs(const Circuit& circuit, const Circuit& golden,
                              const CampaignOptions& options) {
  validate_bundle_interface(circuit, options.bundle_width);
  const auto width = static_cast<std::size_t>(options.bundle_width);
  if (golden.num_inputs() * width != circuit.num_inputs() ||
      golden.num_outputs() * width != circuit.num_outputs()) {
    throw std::invalid_argument(
        "fault campaign: golden interface mismatch (circuit " +
        std::to_string(circuit.num_inputs()) + "->" +
        std::to_string(circuit.num_outputs()) + ", golden " +
        std::to_string(golden.num_inputs()) + "->" +
        std::to_string(golden.num_outputs()) + ", bundle_width " +
        std::to_string(options.bundle_width) + ")");
  }
  if (options.exhaustive) {
    check_exhaustive_cap(golden.num_inputs());
  } else if (options.patterns == 0) {
    throw std::invalid_argument("fault campaign: patterns must be > 0");
  }
  constexpr auto kMaxShard = static_cast<std::uint64_t>(sim::kBlockPatterns);
  if (options.shard_patterns == 0 || options.shard_patterns > kMaxShard) {
    throw std::invalid_argument(
        "fault campaign: shard_patterns must be 1 to " +
        std::to_string(sim::kBlockPatterns) + ", got " +
        std::to_string(options.shard_patterns));
  }
}

exec::ShardPlan campaign_shard_plan(const Circuit& golden,
                                    const CampaignOptions& options) {
  return exec::ShardPlan(
      static_cast<std::size_t>(pattern_total(golden, options)),
      static_cast<std::size_t>(options.shard_patterns));
}

void pack_shard_patterns(std::size_t num_logical_inputs,
                         const CampaignOptions& options,
                         const exec::Shard& shard, std::span<Word> inputs,
                         std::size_t first) {
  if (options.exhaustive) check_exhaustive_cap(num_logical_inputs);
  const std::size_t end = first + shard.size();
  if (inputs.size() <
      (end + sim::kWordBits - 1) / sim::kWordBits * num_logical_inputs) {
    throw std::invalid_argument("pack_shard_patterns: block too short");
  }
  sim::Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  for (std::size_t p = first; p < end; ++p) {
    const std::uint64_t pattern = shard.begin + (p - first);
    const Word bit = Word{1} << (p % sim::kWordBits);
    Word* word = inputs.data() + (p / sim::kWordBits) * num_logical_inputs;
    for (std::size_t i = 0; i < num_logical_inputs; ++i) {
      const Word v = options.exhaustive ? (pattern >> i) & 1 : rng.next() >> 63;
      word[i] = (word[i] & ~bit) | (v * bit);
    }
  }
}

std::vector<std::vector<bool>> shard_pattern_bits(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    const exec::Shard& shard) {
  std::vector<Word> words((shard.size() + sim::kWordBits - 1) /
                          sim::kWordBits * num_logical_inputs);
  pack_shard_patterns(num_logical_inputs, options, shard, words, 0);
  std::vector<std::vector<bool>> rows(shard.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    rows[j] = unpack_pattern(words, num_logical_inputs, j);
  }
  return rows;
}

std::vector<std::uint32_t> sampled_classes(const FaultUniverse& universe,
                                           const CampaignOptions& options) {
  const std::size_t n = universe.num_classes();
  std::vector<std::uint32_t> classes;
  classes.reserve(n);
  // Untestable classes leave the active set before sampling: a sample drawn
  // under pruning grades testable faults only.
  for (std::size_t c = 0; c < n; ++c) {
    if (options.prune_untestable && universe.class_untestable(c)) continue;
    classes.push_back(static_cast<std::uint32_t>(c));
  }
  if (options.sample == 0 || options.sample >= classes.size()) return classes;
  // Rank every candidate class by a counter-stream key of the (salted) seed
  // and keep the `sample` smallest — order-free, shard-independent, and a
  // pure function of (candidates, seed, sample). Keys are per class index,
  // so a class's key never depends on pruning. Ties break toward the lower
  // class index via the pair ordering.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    keyed[i] = {exec::stream_seed(options.seed ^ kSampleSalt, classes[i]),
                classes[i]};
  }
  const auto cut =
      keyed.begin() + static_cast<std::ptrdiff_t>(options.sample);
  std::nth_element(keyed.begin(), cut - 1, keyed.end());
  classes.clear();
  classes.reserve(static_cast<std::size_t>(options.sample));
  for (auto it = keyed.begin(); it != cut; ++it) classes.push_back(it->second);
  std::sort(classes.begin(), classes.end());
  return classes;
}

void CampaignCounts::merge(const CampaignCounts& other) {
  if (first_pattern.size() != other.first_pattern.size()) {
    throw std::invalid_argument("CampaignCounts::merge: size mismatch");
  }
  // Per-class minimum on the global pattern index; the first output rides
  // along. Shards own disjoint pattern ranges, so ties are impossible and
  // the merge is order-independent.
  for (std::size_t c = 0; c < first_pattern.size(); ++c) {
    if (other.first_pattern[c] < first_pattern[c]) {
      first_pattern[c] = other.first_pattern[c];
      first_output[c] = other.first_output[c];
    }
  }
  passes += other.passes;
}

CampaignCounts campaign_shard_counts(const Circuit& circuit,
                                     const Circuit& golden,
                                     const FaultUniverse& universe,
                                     const CampaignOptions& options,
                                     const exec::Shard& shard) {
  const exec::ShardPlan plan = campaign_shard_plan(golden, options);
  const exec::Shard planned = plan.shard(shard.index);
  if (shard.index >= plan.num_shards() || planned.begin != shard.begin ||
      planned.end != shard.end) {
    throw std::invalid_argument(
        "campaign_shard_counts: not a shard of the campaign's plan");
  }
  const PatternFaultSim kernel(circuit, universe, options.bundle_width,
                               sampled_classes(universe, options));
  return sweep_task(circuit, golden, universe, kernel, options,
                    {.plan = &plan,
                     .first_block = shard.index,
                     .end_block = shard.index + 1,
                     .end = kernel.num_active()},
                    nullptr);
}

FaultCampaignResult finalize_campaign(const Circuit& circuit,
                                      const Circuit& golden,
                                      const FaultUniverse& universe,
                                      const CampaignOptions& options,
                                      const CampaignCounts& counts) {
  return finalize(circuit, golden, universe, options,
                  sampled_classes(universe, options).size(), counts);
}

exec::ShardedJob<FaultCampaignResult> campaign_job(
    const Circuit& circuit, const Circuit& golden,
    const CampaignOptions& options, DetectionTable* rows) {
  validate_campaign_inputs(circuit, golden, options);
  auto universe = std::make_shared<const FaultUniverse>(FaultUniverse::build(
      circuit, options.collapse, options.prune_untestable));
  auto kernel = std::make_shared<const PatternFaultSim>(
      circuit, *universe, options.bundle_width,
      sampled_classes(*universe, options));
  const exec::ShardPlan plan = campaign_shard_plan(golden, options);
  if (rows != nullptr) {
    rows->universe = universe;
    rows->patterns.assign(plan.total(), {});
    rows->detected.assign(plan.total(), {});
  }
  // Dropping counts passes from each shard's own detections, and rows need
  // every class on every pattern: those runs grade one block per task. Any
  // other run keeps only first detections, so it retires classes, one task
  // per slice.
  const std::size_t blocks = block_count(plan);
  const bool retire = !options.drop && rows == nullptr;
  const std::vector<std::size_t> cuts =
      kernel->slice_cuts(retire ? std::min(blocks, kMaxRetiringSlices) : 1);
  return exec::merging_job(
      retire ? cuts.size() - 1 : blocks,
      CampaignCounts(universe->num_classes()),
      [&circuit, &golden, universe, kernel, options, plan, cuts, blocks,
       retire, rows](std::size_t t) {
        const std::size_t slice = retire ? t : 0;
        return sweep_task(circuit, golden, *universe, *kernel, options,
                          {.plan = &plan,
                           .per_block = shards_per_block(plan),
                           .first_block = retire ? 0 : t,
                           .end_block = retire ? blocks : t + 1,
                           .slice = slice,
                           .first = cuts[slice],
                           .end = cuts[slice + 1],
                           .retire = retire},
                          rows);
      },
      [&circuit, &golden, universe, kernel,
       options](const CampaignCounts& total) {
        return finalize(circuit, golden, *universe, options,
                        kernel->num_active(), total);
      });
}

FaultCampaignResult run_campaign(const Circuit& circuit, const Circuit* golden,
                                 const CampaignOptions& options,
                                 exec::Parallelism how, DetectionTable* rows) {
  const obs::Span span("fault-campaign", {}, circuit.name());
  return exec::run(campaign_job(circuit, golden != nullptr ? *golden : circuit,
                                options, rows),
                   how);
}

// ---- .ans -------------------------------------------------------------------

void write_ans(std::ostream& out, const Circuit& circuit,
               const FaultCampaignResult& result, const DetectionTable& table) {
  if (result.sampled + result.untestable != result.classes) {
    throw std::invalid_argument(
        "write_ans: a sampled run has no rows for its unsampled classes");
  }
  const FaultUniverse& universe = *table.universe;
  out << "# pattern net sa0_eq sa1_eq\n";
  const auto detected_bit = [&](const std::vector<Word>& row,
                                std::size_t site) {
    const std::size_t cls = universe.class_of(site);
    return (row[cls / sim::kWordBits] >> (cls % sim::kWordBits)) & 1;
  };
  for (std::size_t p = 0; p < table.detected.size(); ++p) {
    const std::vector<Word>& row = table.detected[p];
    for (netlist::NodeId net = 0; net < universe.num_nets(); ++net) {
      const std::size_t sa0 = site_index(net, StuckAt::kZero);
      out << p << ' ' << circuit.node_name(net) << ' '
          << (1 - detected_bit(row, sa0)) << ' '
          << (1 - detected_bit(row, site_index(net, StuckAt::kOne))) << '\n';
    }
  }
  // Detectability map: first detecting (pattern, logical output) per site,
  // expanded from classes exactly like the rows above.
  out << "# detect net sa0_pattern sa0_output sa1_pattern sa1_output\n";
  const auto put_first = [&](std::size_t site) {
    const std::size_t cls = universe.class_of(site);
    if (result.first_detect_pattern[cls] == kNotDetected) {
      out << " - -";
    } else {
      out << ' ' << result.first_detect_pattern[cls] << ' '
          << result.first_detect_output[cls];
    }
  };
  for (netlist::NodeId net = 0; net < universe.num_nets(); ++net) {
    out << "detect " << circuit.node_name(net);
    put_first(site_index(net, StuckAt::kZero));
    put_first(site_index(net, StuckAt::kOne));
    out << '\n';
  }
}

}  // namespace enb::fault
