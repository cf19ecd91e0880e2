// Deterministic sharded stuck-at fault campaigns.
//
// A campaign asks, for every equivalence class of the circuit's fault
// universe, "does any pattern in the budget detect this fault — and which
// pattern and output see it first?" — where detection means a
// majority-decoded output differs from the golden circuit's fault-free
// response. With golden == the circuit itself this is classic
// fault-coverage grading; with golden == the unprotected base design and
// the circuit an ft/ redundancy variant (NMR, von Neumann multiplexing
// with bundle_width > 1) the *undetected* fraction is the masking the
// redundancy buys, and the result pairs it with the gate overhead paid —
// the energy-vs-coverage trade the paper's bounds price.
//
// Determinism contract (same as every estimator in the repo): patterns are
// split into fixed-size shards; shard i derives its random patterns from
// the counter-based stream of (seed, i) and contributes per-class
// first-detection records that merge by per-class minimum on the global
// pattern index (tie-free: shards own disjoint pattern ranges). Results
// are therefore bit-identical for any thread count, submission order, or
// co-scheduled work, which is what lets FaultCampaignRequest ride the
// batch evaluator and the serve daemon's result cache unchanged.
//
// Scale knobs (all preserve that contract exactly):
//   drop    retire detected classes *within a shard*: a class leaves the
//           kernel's active set after the word that first detects it, and
//           the pass count after the pattern that does. First detections
//           are recorded before retirement and shard-local pattern order
//           is sequential, so every output field is bit-identical to the
//           no-drop path — only sim_passes shrinks. Passes are a
//           normalized work unit, one golden pass plus one per 64 active
//           classes per pattern, whatever the kernel does.
//   sample  simulate only a deterministic sample of the classes (counter
//           stream keyed by seed) and report coverage of the sample with a
//           Wilson confidence interval. Changes what is simulated, so it
//           IS part of the canonical spec, as is drop (it changes
//           sim_passes).
//   prune   skip classes the static prover (fault/untestable.hpp) proved
//           untestable and report coverage over the testable universe.
//           Per-class records keep universe indexing and stay bit-identical
//           to the unpruned run on every testable class. Spec-relevant.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"

namespace enb::fault {

// perfbench/src/fault_nodrop.cpp still assigns CampaignOptions::lanes;
// nothing reads it. ROADMAP item 3's benchmark-lane change deletes the
// field, this enum and that assignment together.
enum class LaneWidth : int { k64 = 64 };

struct CampaignOptions {
  // Random-pattern budget (logical input assignments); ignored when
  // exhaustive is set.
  std::uint64_t patterns = 256;
  // Enumerate all 2^n logical assignments instead (n <= kMaxExhaustiveCampaignInputs).
  bool exhaustive = false;
  std::uint64_t seed = 0xFA17;
  // Patterns per shard. Part of the seed contract: changing it re-partitions
  // the stream space and (deterministically) changes which random patterns
  // are drawn.
  std::uint64_t shard_patterns = 64;
  // ft/ bundle convention: inputs/outputs are consecutive bundles of this
  // many wires per logical signal, majority-decoded before comparison
  // (1 = plain circuit).
  int bundle_width = 1;
  // Structural equivalence collapsing (fault_model.hpp). Off simulates every
  // site as its own class — slower, same coverage, used for cross-checks.
  bool collapse = true;
  // Fault dropping: stop simulating a class once detected (see file
  // comment). Identical results, fewer sim_passes.
  bool drop = false;
  // Simulate only this many classes, chosen by a deterministic counter
  // stream of the seed (0 = the whole universe). Spec-relevant.
  std::uint64_t sample = 0;
  // Drop statically-untestable classes (fault/untestable.hpp) from the
  // active set and the coverage denominator. Class numbering and every
  // per-class record are unchanged — an untestable class simply reports
  // "never detected", which is what simulating it would have reported —
  // so pruned results are bit-identical to unpruned ones restricted to
  // the testable classes. Changes what is simulated: spec-relevant.
  bool prune_untestable = false;
  // Read by nothing; see LaneWidth above.
  LaneWidth lanes = LaneWidth::k64;
};

// Exhaustive campaigns are capped well below sim::kMaxExhaustiveInputs:
// every pattern costs ceil(classes/64) + 1 sweeps, not one lane.
inline constexpr int kMaxExhaustiveCampaignInputs = 20;

// Typed error for budgets over the exhaustive cap, so batch error isolation
// and the CLI's exit-2 path can surface it distinctly from generic
// validation failures.
class ExhaustiveCapError : public std::invalid_argument {
 public:
  explicit ExhaustiveCapError(std::size_t logical_inputs);
  [[nodiscard]] std::size_t logical_inputs() const noexcept {
    return logical_inputs_;
  }

 private:
  std::size_t logical_inputs_;
};

struct FaultCampaignResult {
  std::uint64_t nets = 0;        // fault sites / 2
  std::uint64_t sites = 0;       // 2 per net, before collapsing
  std::uint64_t classes = 0;     // equivalence classes in the universe
  std::uint64_t sampled = 0;     // classes actually simulated (== classes
                                 // unless options.sample or
                                 // options.prune_untestable shrink the set)
  std::uint64_t untestable = 0;  // classes proved untestable (0 unpruned)
  std::uint64_t detected = 0;    // sampled classes detected by >= 1 pattern
  std::uint64_t patterns = 0;    // logical patterns simulated
  std::uint64_t sim_passes = 0;  // normalized 64-lane sweeps (golden + faulty)
  double coverage = 0.0;         // detected / sampled
  // Wilson interval for the universe coverage implied by the sample; both
  // ends equal coverage when the whole universe was simulated.
  double coverage_ci_low = 0.0;
  double coverage_ci_high = 0.0;
  double masked_fraction = 0.0;  // 1 - coverage
  // Energy-vs-coverage ingredients: the redundancy variant's gate count
  // against the golden reference it protects.
  std::uint64_t gates = 0;
  std::uint64_t golden_gates = 0;
  double gate_overhead = 1.0;        // gates / golden_gates
  double overhead_per_masked = 0.0;  // gate_overhead / masked_fraction
  // Distinct logical outputs that are the first detector of some class —
  // the scalar summary of the detectability map below.
  std::uint64_t detect_outputs = 0;
  // Per-class detection indicator (0/1), in class order. Unsampled classes
  // are 0.
  std::vector<std::uint64_t> detection_counts;
  // Detectability map, in class order: the global index of the earliest
  // detecting pattern (kNotDetected when undetected or unsampled) and the
  // lowest logical output index that detects at that pattern (kNoOutput).
  std::vector<std::uint64_t> first_detect_pattern;
  std::vector<std::uint32_t> first_detect_output;

  friend bool operator==(const FaultCampaignResult&,
                         const FaultCampaignResult&) = default;
};

// ---- shard-level building blocks -----------------------------------------
//
// campaign_job is *defined* as the merge of these shard bodies; run_campaign
// and the batch engine both drive that job, so batched campaigns are
// bit-identical to direct calls by construction.

// Validation run_campaign applies before sharding: bundle-divisible
// interfaces, golden/circuit agreement on the logical interface, positive
// budgets, and the exhaustive input cap (ExhaustiveCapError).
void validate_campaign_inputs(const netlist::Circuit& circuit,
                              const netlist::Circuit& golden,
                              const CampaignOptions& options);

// The pattern decomposition implied by `options`: 2^n logical assignments
// when exhaustive, else options.patterns, in shards of shard_patterns.
// `golden` supplies the logical input count.
[[nodiscard]] exec::ShardPlan campaign_shard_plan(
    const netlist::Circuit& golden, const CampaignOptions& options);

// The logical input patterns of one shard — a pure function of
// (options, shard): assignment bits of the pattern index when exhaustive,
// else draws from the counter-based stream of (seed, shard.index). Shared
// by the campaign shards and the per-pattern detection table so `.ans` rows
// and aggregate coverage always describe the same patterns.
[[nodiscard]] std::vector<std::vector<bool>> shard_pattern_bits(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    const exec::Shard& shard);

// The classes a campaign with `options` simulates, ascending: all of them,
// or a `sample`-sized subset keyed by the counter stream of the seed — a
// pure function of (universe size, seed, sample), independent of sharding.
[[nodiscard]] std::vector<std::uint32_t> sampled_classes(
    const FaultUniverse& universe, const CampaignOptions& options);

// Per-class first-detection records plus the sweeps spent collecting them;
// merges commutatively (per-class min on the pattern index — tie-free
// across shards — and scalar pass sums).
struct CampaignCounts {
  CampaignCounts() = default;
  explicit CampaignCounts(std::size_t num_classes)
      : first_pattern(num_classes, kNotDetected),
        first_output(num_classes, kNoOutput) {}

  std::vector<std::uint64_t> first_pattern;
  std::vector<std::uint32_t> first_output;
  std::uint64_t passes = 0;

  void merge(const CampaignCounts& other);
};

// Counts contributed by one shard of the plan. Precondition: inputs
// validated and `universe` built for `circuit` with options.collapse.
[[nodiscard]] CampaignCounts campaign_shard_counts(
    const netlist::Circuit& circuit, const netlist::Circuit& golden,
    const FaultUniverse& universe, const CampaignOptions& options,
    const exec::Shard& shard);

// Serial reduction of the merged counts into the result record.
[[nodiscard]] FaultCampaignResult finalize_campaign(
    const netlist::Circuit& circuit, const netlist::Circuit& golden,
    const FaultUniverse& universe, const CampaignOptions& options,
    const CampaignCounts& counts);

// A whole campaign as one sharded job (see exec::ShardedJob): validates,
// builds the fault universe once (shared read-only by every shard), and
// merges each pattern shard's counts under the job's lock. `golden` is the
// reference whose outputs detection compares against.
[[nodiscard]] exec::ShardedJob<FaultCampaignResult> campaign_job(
    const netlist::Circuit& circuit, const netlist::Circuit& golden,
    const CampaignOptions& options);

// Runs campaign_job per `how`. golden == nullptr grades the circuit against
// its own fault-free behaviour.
[[nodiscard]] FaultCampaignResult run_campaign(
    const netlist::Circuit& circuit, const netlist::Circuit* golden,
    const CampaignOptions& options = {}, exec::Parallelism how = {});

// ---- per-pattern detection records (the `.ans` view) ----------------------

// Everything the row-level output needs: the patterns actually simulated
// (global pattern-index order), per pattern one detection word per 64-class
// block (bit c = class c detected — universe class indexing), and the
// merged first-detection counts. Built with slot-per-pattern writes, so the
// table is bit-identical for any thread count. The table path never drops
// (rows must be complete),
// so its counts.passes match the no-drop campaign.
struct DetectionTable {
  std::vector<std::vector<bool>> patterns;        // [pattern][logical input]
  std::vector<std::vector<sim::Word>> detected;   // [pattern][class / 64]
  CampaignCounts counts;
};

[[nodiscard]] DetectionTable build_detection_table(
    const netlist::Circuit& circuit, const netlist::Circuit& golden,
    const FaultUniverse& universe, const CampaignOptions& options,
    exec::Parallelism how = {});

// `.ans`-style rows (as6325400/Fault_Simulation): header
//   # pattern net sa0_eq sa1_eq
// then one row per (pattern, net) in pattern-major, canonical-net-order:
//   <pattern index> <net name> <sa0_eq> <sa1_eq>
// where eq is 1 when the faulty outputs still decode equal to golden
// (fault masked on that pattern) and 0 when the difference is observable.
// Class results are expanded to every member site — exact by equivalence.
// A detectability-map section follows, header
//   # detect net sa0_pattern sa0_output sa1_pattern sa1_output
// then one row per net with the first detecting (pattern, logical output)
// of each polarity, `-` for undetected. Requires a full-universe table.
void write_ans(std::ostream& out, const netlist::Circuit& circuit,
               const FaultUniverse& universe, const DetectionTable& table);

}  // namespace enb::fault
