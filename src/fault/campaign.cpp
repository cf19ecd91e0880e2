#include "fault/campaign.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
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
// dropping and sampling exist to shrink), node evaluations spent
// propagating flipped stems (the kernel's real faulty-machine work), classes
// retired by fault dropping, and lane occupancy in 64-class units (active
// class slots vs provisioned ones; dense until dropping thins the
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

std::uint64_t pattern_total(const Circuit& golden,
                            const CampaignOptions& options) {
  if (options.exhaustive) {
    return std::uint64_t{1} << golden.num_inputs();
  }
  return options.patterns;
}

// The per-shard body shared by the aggregate counts and the detection
// table, so the two views are bit-identical by construction rather than by
// parallel maintenance. The shard's patterns run through the pattern-
// parallel kernel 64 at a time; the golden circuit is simulated once per
// word for the expected outputs, unless it is the circuit itself, whose good
// machine the kernel already has.
//
// First detections are recorded per class the moment they happen (shard
// patterns are sequential and a word reports each class's lowest detecting
// pattern, so the first hit within the shard is the shard's minimum;
// cross-shard minima are taken by CampaignCounts::merge). Fault dropping —
// aggregate path only, the table needs complete rows — then retires the
// detected classes, so every recorded field is identical with dropping on
// or off.
//
// Passes stay in the 64-class-sweep unit the contract is written in: per
// pattern, one golden pass plus one per 64 classes still active at that
// pattern, where under dropping a class stops being active after its
// shard-local first detection. They are counted from the first detections,
// not from the kernel's work, so they are the same for any kernel.
CampaignCounts sweep_shard(const Circuit& circuit, const Circuit& golden,
                           const FaultUniverse& universe,
                           const CampaignOptions& options,
                           const exec::Shard& shard, DetectionTable* table) {
  CampaignCounts counts(universe.num_classes());
  std::vector<std::vector<bool>> patterns =
      shard_pattern_bits(golden.num_inputs(), options, shard);
  PatternFaultSim sim(circuit, universe, options.bundle_width);
  std::vector<std::uint32_t> active = sampled_classes(universe, options);
  const std::uint64_t sampled = active.size();
  sim.set_active(active);
  const bool drop = options.drop && table == nullptr;
  std::optional<sim::LogicSim> golden_sim;
  if (&golden != &circuit) golden_sim.emplace(golden);
  std::vector<Word> inputs(golden.num_inputs());
  std::vector<Word> expected(golden_sim.has_value() ? golden.num_outputs() : 0);
  const std::size_t row_words =
      (universe.num_classes() + sim::kWordBits - 1) / sim::kWordBits;
  // first_hits[i]: classes whose shard-local first detection is pattern i.
  std::vector<std::uint64_t> first_hits(patterns.size(), 0);

  for (std::size_t begin = 0; begin < patterns.size();
       begin += sim::kWordBits) {
    const int count = static_cast<int>(std::min<std::size_t>(
        sim::kWordBits, patterns.size() - begin));
    std::fill(inputs.begin(), inputs.end(), 0);
    for (int p = 0; p < count; ++p) {
      const std::vector<bool>& pattern = patterns[begin + p];
      for (std::size_t b = 0; b < pattern.size(); ++b) {
        if (pattern[b]) inputs[b] |= Word{1} << p;
      }
    }
    if (golden_sim.has_value()) {
      golden_sim->eval(inputs);
      for (std::size_t o = 0; o < expected.size(); ++o) {
        expected[o] = golden_sim->value(golden.outputs()[o]);
      }
    }
    if (table != nullptr) {
      for (int p = 0; p < count; ++p) {
        table->detected[shard.begin + begin + p].assign(row_words, 0);
      }
    }
    bool retired = false;
    for (const PatternFaultSim::Detection& hit :
         sim.detect_word(inputs, count, expected)) {
      if (table != nullptr) {
        for (Word bits = hit.patterns; bits != 0; bits &= bits - 1) {
          table->detected[shard.begin + begin + std::countr_zero(bits)]
                         [hit.cls / sim::kWordBits] |=
              Word{1} << (hit.cls % sim::kWordBits);
        }
      }
      if (counts.first_pattern[hit.cls] != kNotDetected) continue;
      const std::size_t local =
          begin + static_cast<std::size_t>(std::countr_zero(hit.patterns));
      counts.first_pattern[hit.cls] = shard.begin + local;
      counts.first_output[hit.cls] = hit.first_output;
      ++first_hits[local];
      retired = drop;
    }
    if (retired) {
      std::erase_if(active, [&](std::uint32_t cls) {
        return counts.first_pattern[cls] != kNotDetected;
      });
      sim.set_active(active);
    }
  }
  if (table != nullptr) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      table->patterns[shard.begin + i] = std::move(patterns[i]);
    }
  }

  // Passes and lane slots per pattern, as described above; the metrics are
  // published once per shard.
  std::uint64_t still_active = sampled;
  std::uint64_t obs_slots = 0;
  std::uint64_t obs_slots_active = 0;
  std::uint64_t obs_dropped = 0;
  for (const std::uint64_t hits : first_hits) {
    const std::uint64_t blocks =
        (still_active + sim::kWordBits - 1) / sim::kWordBits;
    counts.passes += 1 + blocks;
    obs_slots += blocks * sim::kWordBits;
    obs_slots_active += still_active;
    if (drop) {
      still_active -= hits;
      obs_dropped += hits;
    }
  }
  FaultMetrics& metrics = fault_metrics();
  metrics.shards.add(1);
  metrics.passes.add(counts.passes);
  metrics.events.add(sim.events());
  metrics.lane_slots.add(obs_slots);
  metrics.lane_slots_active.add(obs_slots_active);
  if (obs_dropped > 0) metrics.dropped.add(obs_dropped);
  return counts;
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
    if (golden.num_inputs() >
        static_cast<std::size_t>(kMaxExhaustiveCampaignInputs)) {
      throw ExhaustiveCapError(golden.num_inputs());
    }
  } else if (options.patterns == 0) {
    throw std::invalid_argument("fault campaign: patterns must be > 0");
  }
  if (options.shard_patterns == 0) {
    throw std::invalid_argument("fault campaign: shard_patterns must be > 0");
  }
}

exec::ShardPlan campaign_shard_plan(const Circuit& golden,
                                    const CampaignOptions& options) {
  return exec::ShardPlan(
      static_cast<std::size_t>(pattern_total(golden, options)),
      static_cast<std::size_t>(options.shard_patterns));
}

std::vector<std::vector<bool>> shard_pattern_bits(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    const exec::Shard& shard) {
  std::vector<std::vector<bool>> rows(shard.size());
  if (options.exhaustive) {
    for (std::size_t i = 0; i < shard.size(); ++i) {
      const std::uint64_t assignment = shard.begin + i;
      std::vector<bool>& row = rows[i];
      row.resize(num_logical_inputs);
      for (std::size_t bit = 0; bit < num_logical_inputs; ++bit) {
        row[bit] = ((assignment >> bit) & 1) != 0;
      }
    }
    return rows;
  }
  sim::Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  for (std::size_t i = 0; i < shard.size(); ++i) {
    std::vector<bool>& row = rows[i];
    row.resize(num_logical_inputs);
    for (std::size_t bit = 0; bit < num_logical_inputs; ++bit) {
      row[bit] = (rng.next() >> 63) != 0;
    }
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
  const obs::Span span("fault-sweep-shard", {},
                       "shard=" + std::to_string(shard.index));
  return sweep_shard(circuit, golden, universe, options, shard, nullptr);
}

FaultCampaignResult finalize_campaign(const Circuit& circuit,
                                      const Circuit& golden,
                                      const FaultUniverse& universe,
                                      const CampaignOptions& options,
                                      const CampaignCounts& counts) {
  FaultCampaignResult result;
  result.nets = universe.num_nets();
  result.sites = universe.num_sites();
  result.classes = universe.num_classes();
  result.untestable = universe.num_untestable();
  result.sampled = sampled_classes(universe, options).size();
  result.patterns = pattern_total(golden, options);
  result.sim_passes = counts.passes;
  result.first_detect_pattern = counts.first_pattern;
  result.first_detect_output = counts.first_output;
  result.detection_counts.assign(result.classes, 0);
  std::set<std::uint32_t> first_detectors;
  for (std::size_t c = 0; c < counts.first_pattern.size(); ++c) {
    if (counts.first_pattern[c] != kNotDetected) {
      result.detection_counts[c] = 1;
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

exec::ShardedJob<FaultCampaignResult> campaign_job(
    const Circuit& circuit, const Circuit& golden,
    const CampaignOptions& options) {
  validate_campaign_inputs(circuit, golden, options);
  auto universe = std::make_shared<const FaultUniverse>(FaultUniverse::build(
      circuit, options.collapse, options.prune_untestable));
  const exec::ShardPlan plan = campaign_shard_plan(golden, options);
  return exec::merging_job(
      plan.num_shards(), CampaignCounts(universe->num_classes()),
      [&circuit, &golden, universe, options, plan](std::size_t i) {
        return campaign_shard_counts(circuit, golden, *universe, options,
                                     plan.shard(i));
      },
      [&circuit, &golden, universe, options](const CampaignCounts& total) {
        return finalize_campaign(circuit, golden, *universe, options, total);
      });
}

FaultCampaignResult run_campaign(const Circuit& circuit, const Circuit* golden,
                                 const CampaignOptions& options,
                                 exec::Parallelism how) {
  const obs::Span span("fault-campaign", {}, circuit.name());
  return exec::run(
      campaign_job(circuit, golden != nullptr ? *golden : circuit, options),
      how);
}

// ---- detection table / .ans ------------------------------------------------

DetectionTable build_detection_table(const Circuit& circuit,
                                     const Circuit& golden,
                                     const FaultUniverse& universe,
                                     const CampaignOptions& options,
                                     exec::Parallelism how) {
  validate_campaign_inputs(circuit, golden, options);
  const exec::ShardPlan plan = campaign_shard_plan(golden, options);

  DetectionTable table;
  table.patterns.resize(plan.total());
  table.detected.resize(plan.total());
  exec::LockedTotal<CampaignCounts> counts(
      CampaignCounts(universe.num_classes()));
  exec::for_each_shard(
      plan,
      [&](const exec::Shard& shard) {
        // Slot-per-pattern row writes are race-free (disjoint slots); only
        // the counts merge needs the lock.
        counts.merge(
            sweep_shard(circuit, golden, universe, options, shard, &table));
      },
      how);
  table.counts = counts.take();
  return table;
}

void write_ans(std::ostream& out, const Circuit& circuit,
               const FaultUniverse& universe, const DetectionTable& table) {
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
      out << p << ' ' << circuit.node_name(universe.site(sa0).node) << ' '
          << (1 - detected_bit(row, sa0)) << ' '
          << (1 - detected_bit(row, site_index(net, StuckAt::kOne))) << '\n';
    }
  }
  // Detectability map: first detecting (pattern, logical output) per site,
  // expanded from classes exactly like the rows above.
  out << "# detect net sa0_pattern sa0_output sa1_pattern sa1_output\n";
  const auto put_first = [&](std::size_t site) {
    const std::size_t cls = universe.class_of(site);
    if (table.counts.first_pattern[cls] == kNotDetected) {
      out << " - -";
    } else {
      out << ' ' << table.counts.first_pattern[cls] << ' '
          << table.counts.first_output[cls];
    }
  };
  for (netlist::NodeId net = 0; net < universe.num_nets(); ++net) {
    const std::size_t sa0 = site_index(net, StuckAt::kZero);
    out << "detect " << circuit.node_name(universe.site(sa0).node);
    put_first(sa0);
    put_first(site_index(net, StuckAt::kOne));
    out << '\n';
  }
}

}  // namespace enb::fault
