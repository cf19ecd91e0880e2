// Property suite for src/harden/: every emitted variant is proved
// output-equivalent to its base and lints clean across all styles and
// granularities; the redundancy does what each style promises under single
// stuck-at faults (TMR masks replica-internal faults, DWC flags duplicated-
// region faults on its check outputs — cross-checked fault by fault with the
// scalar reference simulator); and the Pareto sweep emits a genuinely
// non-dominated frontier that is bit-identical for any thread count.
//
// The selective-vs-uniform pin at the end is the subsystem's reason to
// exist: campaign-ranked selective hardening at no more area than uniform
// TMR keeps strictly more fault observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_sim.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "harden/types.hpp"
#include "netlist/circuit.hpp"
#include "obs/metrics.hpp"
#include "sim/logic_sim.hpp"
#include "util/sha256.hpp"

namespace enb::harden {
namespace {

using netlist::Circuit;
using netlist::NodeId;

constexpr Style kStyles[] = {Style::kTmr, Style::kDwc, Style::kSelective};
constexpr Granularity kGranularities[] = {
    Granularity::kGate, Granularity::kCone, Granularity::kOutput};

// One shared c17 sweep with the subsystem's default options — several tests
// below assert different properties of the same deterministic result.
const ParetoResult& c17_sweep() {
  static const ParetoResult result =
      pareto_sweep(analysis::compile(gen::c17()), SweepOptions{});
  return result;
}

const Candidate* find_candidate(const ParetoResult& result,
                                const std::string& label) {
  const auto it = std::find_if(
      result.candidates.begin(), result.candidates.end(),
      [&label](const Candidate& c) { return c.label == label; });
  return it == result.candidates.end() ? nullptr : &*it;
}

// j strictly dominates i over (energy_factor down, protection up,
// gates down).
bool dominates(const Candidate& j, const Candidate& i) {
  const bool no_worse = j.energy_factor <= i.energy_factor &&
                        j.protection >= i.protection && j.gates <= i.gates;
  const bool strictly_better = j.energy_factor < i.energy_factor ||
                               j.protection > i.protection ||
                               j.gates < i.gates;
  return no_worse && strictly_better;
}

TEST(Harden, EveryVariantIsEquivalentAndLintCleanAcrossTheStandardSuite) {
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const Circuit base = spec.build();
    for (const Style style : kStyles) {
      for (const Granularity granularity : kGranularities) {
        TransformOptions options;
        options.style = style;
        options.granularity = granularity;
        if (style == Style::kSelective) options.top_k = 1;
        const HardenedCircuit variant = harden_transform(base, options);
        const std::string what = spec.name + std::string(" ") +
                                 to_string(style) + "/" +
                                 to_string(granularity);
        EXPECT_EQ(variant.base_outputs, base.num_outputs()) << what;
        const analysis::CecResult proof = verify_hardened(base, variant);
        EXPECT_TRUE(proof.equivalent) << what;
        EXPECT_FALSE(proof.inconclusive) << what;
        EXPECT_TRUE(lint_hardened(variant).clean()) << what;
      }
    }
  }
}

TEST(Harden, TmrMasksEverySingleReplicaFault) {
  // Whole-circuit TMR of c17: the replica fabric occupies the node range
  // right after the inputs (three appended copies of the base gates). Every
  // stuck-at inside it must be invisible on every input assignment — checked
  // against the scalar reference simulator, one fault and one pattern at a
  // time, with the base circuit supplying the golden responses.
  const Circuit base = gen::c17();
  TransformOptions options;
  options.style = Style::kTmr;
  options.granularity = Granularity::kOutput;
  const HardenedCircuit variant = harden_transform(base, options);

  const NodeId replica_begin = static_cast<NodeId>(base.num_inputs());
  const NodeId replica_end =
      static_cast<NodeId>(base.num_inputs() + 3 * base.gate_count());

  const fault::FaultUniverse universe =
      fault::FaultUniverse::build(variant.circuit, /*collapse=*/true);
  fault::ScalarFaultSim scalar(variant.circuit, universe);

  std::vector<std::uint32_t> replica_classes;
  for (std::size_t s = 0; s < universe.num_sites(); ++s) {
    const fault::FaultSite& site = universe.site(s);
    if (site.node < replica_begin || site.node >= replica_end) continue;
    replica_classes.push_back(universe.class_of(s));
  }
  std::sort(replica_classes.begin(), replica_classes.end());
  replica_classes.erase(
      std::unique(replica_classes.begin(), replica_classes.end()),
      replica_classes.end());
  // The sweep really covers the three replicas' own fault classes.
  EXPECT_GE(replica_classes.size(), 3 * base.gate_count());

  std::vector<bool> pattern(base.num_inputs());
  for (std::uint32_t v = 0; v < (1u << base.num_inputs()); ++v) {
    for (std::size_t i = 0; i < base.num_inputs(); ++i) {
      pattern[i] = ((v >> i) & 1u) != 0;
    }
    const std::vector<bool> expected = sim::eval_single(base, pattern);
    for (const std::uint32_t cls : replica_classes) {
      EXPECT_FALSE(scalar.detect(cls, pattern, expected))
          << "replica fault class " << cls << " escaped the voters on "
          << "assignment " << v;
    }
  }
}

TEST(Harden, DwcComparatorFlagsEveryDuplicatedRegionFault) {
  // Whole-circuit DWC of c17: the duplicate copy sits right after the cloned
  // base nodes. A fault there never touches a primary output (copy A drives
  // them), so the comparator check outputs are its only witnesses — and they
  // must catch every one (c17 exposes its whole collapsed universe, so no
  // duplicate fault is untestable at its cone output).
  const Circuit base = gen::c17();
  TransformOptions options;
  options.style = Style::kDwc;
  options.granularity = Granularity::kOutput;
  const HardenedCircuit variant = harden_transform(base, options);
  ASSERT_EQ(variant.check_outputs, base.num_outputs());

  const NodeId duplicate_begin = static_cast<NodeId>(base.node_count());
  const NodeId duplicate_end =
      static_cast<NodeId>(base.node_count() + base.gate_count());

  fault::CampaignOptions campaign;
  campaign.exhaustive = true;
  const fault::FaultUniverse universe =
      fault::FaultUniverse::build(variant.circuit, campaign.collapse);
  const fault::FaultCampaignResult result =
      fault::run_campaign(variant.circuit, nullptr, campaign);
  ASSERT_EQ(result.first_detect_pattern.size(), universe.num_classes());

  std::size_t duplicate_sites = 0;
  for (std::size_t s = 0; s < universe.num_sites(); ++s) {
    const fault::FaultSite& site = universe.site(s);
    if (site.node < duplicate_begin || site.node >= duplicate_end) continue;
    ++duplicate_sites;
    const std::uint32_t cls = universe.class_of(s);
    EXPECT_NE(result.first_detect_pattern[cls], fault::kNotDetected)
        << "duplicate fault " << to_string(site.value) << " on node "
        << site.node << " was never flagged";
    EXPECT_GE(result.first_detect_output[cls], variant.base_outputs)
        << "duplicate fault " << to_string(site.value) << " on node "
        << site.node << " reached a primary output";
  }
  EXPECT_GE(duplicate_sites, 2 * base.gate_count());
}

TEST(Harden, RankOutputConesIsAPermutationBackedByDetectEvidence) {
  const Circuit base = gen::find_benchmark("rca8").build();
  fault::CampaignOptions campaign;
  campaign.exhaustive = false;
  campaign.patterns = 128;
  const fault::FaultCampaignResult result =
      fault::run_campaign(base, nullptr, campaign);
  const std::vector<std::size_t> order = rank_output_cones(base, result);
  ASSERT_EQ(order.size(), base.num_outputs());
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t pos = 0; pos < sorted.size(); ++pos) {
    EXPECT_EQ(sorted[pos], pos);
  }
}

TEST(Harden, EnumerateCandidatesSweepsAxesAndRespectsPins) {
  SweepOptions options;
  // c17 has 2 outputs: the selective K ladder is just {1}, so the full sweep
  // is 3 TMR + 3 DWC + 3 selective configs.
  EXPECT_EQ(enumerate_candidates(2, options).size(), 9u);
  // 8 outputs: ladder {1, 2, 4} -> 3 + 3 + 9.
  EXPECT_EQ(enumerate_candidates(8, options).size(), 15u);

  options.style = Style::kDwc;
  options.granularity = Granularity::kOutput;
  const std::vector<TransformOptions> pinned =
      enumerate_candidates(8, options);
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].style, Style::kDwc);
  EXPECT_EQ(pinned[0].granularity, Granularity::kOutput);

  options.style = Style::kSelective;
  options.granularity.reset();
  options.top_k = 5;
  const std::vector<TransformOptions> pinned_k =
      enumerate_candidates(8, options);
  ASSERT_EQ(pinned_k.size(), 3u);
  for (const TransformOptions& config : pinned_k) {
    EXPECT_EQ(config.style, Style::kSelective);
    EXPECT_EQ(config.top_k, 5u);
  }
}

TEST(Harden, SweepProvesEveryCandidateAndEmitsANonDominatedFrontier) {
  const ParetoResult& result = c17_sweep();
  ASSERT_EQ(result.candidates.size(), 10u);  // baseline + 9 configs
  EXPECT_EQ(result.candidates[0].label, "base");
  EXPECT_FALSE(result.candidates[0].hardened);
  EXPECT_EQ(result.refuted, 0u);
  EXPECT_EQ(result.lint_errors, 0u);
  for (const Candidate& candidate : result.candidates) {
    EXPECT_TRUE(candidate.equivalent) << candidate.label;
    EXPECT_TRUE(candidate.lint_clean) << candidate.label;
    EXPECT_GT(candidate.gates, 0u) << candidate.label;
    EXPECT_GT(candidate.energy_factor, 0.0) << candidate.label;
  }

  ASSERT_FALSE(result.frontier.empty());
  EXPECT_TRUE(std::is_sorted(result.frontier.begin(), result.frontier.end()));
  for (const std::uint32_t index : result.frontier) {
    ASSERT_LT(index, result.candidates.size());
    EXPECT_TRUE(result.candidates[index].on_frontier);
  }
  // No frontier point is strictly dominated by any candidate, and every
  // eligible point left off the frontier is dominated (or exactly tied to an
  // earlier candidate) by someone.
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const Candidate& ci = result.candidates[i];
    if (ci.on_frontier) {
      for (const Candidate& cj : result.candidates) {
        EXPECT_FALSE(dominates(cj, ci)) << cj.label << " vs " << ci.label;
      }
      continue;
    }
    bool covered = false;
    for (std::size_t j = 0; j < result.candidates.size() && !covered; ++j) {
      if (j == i) continue;
      const Candidate& cj = result.candidates[j];
      const bool no_worse = cj.energy_factor <= ci.energy_factor &&
                            cj.protection >= ci.protection &&
                            cj.gates <= ci.gates;
      covered = no_worse && (dominates(cj, ci) || j < i);
    }
    EXPECT_TRUE(covered) << ci.label << " is off the frontier undominated";
  }
}

TEST(Harden, SweepIsBitIdenticalForAnyThreadCount) {
  const ParetoResult& baseline = c17_sweep();
  const analysis::CompiledCircuit handle = analysis::compile(gen::c17());
  EXPECT_EQ(pareto_sweep(handle, SweepOptions{}, exec::Parallelism::serial()),
            baseline);
  EXPECT_EQ(
      pareto_sweep(handle, SweepOptions{}, exec::Parallelism::dedicated(8)),
      baseline);
}

TEST(Harden, SweepOverACachedBaseDerivesEveryCandidateProfile) {
  // Every proved candidate's profile is derived from the base extraction,
  // never extracted: over a base whose profile is already cached, a c17
  // sweep performs no extraction at all and nine derivations (the
  // analysis-profile-* counters the serve metrics verb exposes).
  obs::Counter& extracted =
      obs::Registry::global().counter("analysis-profile-extractions-total");
  obs::Counter& derived =
      obs::Registry::global().counter("analysis-profile-derived-total");
  const ParetoResult& reference = c17_sweep();
  const analysis::CompiledCircuit handle = analysis::compile(gen::c17());
  (void)handle.profile();
  const std::uint64_t extracted_before = extracted.value();
  const std::uint64_t derived_before = derived.value();
  EXPECT_EQ(pareto_sweep(handle, SweepOptions{}), reference);
  EXPECT_EQ(extracted.value() - extracted_before, 0u);
  EXPECT_EQ(derived.value() - derived_before, 9u);
  EXPECT_EQ(handle.profile_extractions(), 1u);
}

TEST(Harden, RebuildCandidateRegeneratesAProvedWinner) {
  // --emit regenerates winners from their (style, granularity, K) identity;
  // the rebuilt netlist must match the graded candidate's area and prove
  // equivalent again — including the selective path, which re-derives its
  // cone ranking from the base campaign.
  const ParetoResult& result = c17_sweep();
  const Circuit base = gen::c17();
  for (const std::string label : {"tmr/output", "selective/gate/k1"}) {
    const Candidate* candidate = find_candidate(result, label);
    ASSERT_NE(candidate, nullptr) << label;
    const HardenedCircuit rebuilt =
        rebuild_candidate(base, SweepOptions{}, *candidate);
    EXPECT_EQ(rebuilt.circuit.gate_count(), candidate->gates) << label;
    EXPECT_EQ(rebuilt.voter_gates, candidate->voter_gates) << label;
    EXPECT_TRUE(verify_hardened(base, rebuilt).equivalent) << label;
  }
  EXPECT_THROW((void)rebuild_candidate(base, SweepOptions{},
                                       result.candidates[0]),
               std::invalid_argument);
}

TEST(Harden, SelectiveHardeningBeatsUniformTmrAtEqualAreaOnC17) {
  // The acceptance pin: campaign-ranked selective gate hardening of the top
  // cone spends no more area than uniform whole-circuit TMR yet keeps
  // strictly more raw fault observability (uniform TMR masks detections
  // away), so at equal area the selective point strictly dominates on
  // coverage.
  const ParetoResult& result = c17_sweep();
  const Candidate* selective = find_candidate(result, "selective/gate/k1");
  const Candidate* uniform = find_candidate(result, "tmr/output");
  ASSERT_NE(selective, nullptr);
  ASSERT_NE(uniform, nullptr);
  EXPECT_LE(selective->gates, uniform->gates);
  EXPECT_GT(selective->coverage, uniform->coverage);
}

// Full default sweeps, serialized through exec::write_result_json and pinned
// by SHA-256: c17 takes the exact (exhaustive simulation) activity route
// with exact sensitivity, c432 the Monte-Carlo route with sampled
// sensitivity, and the two-input voter style exercises the AND/OR voter
// netlists. Each sweep runs on a fresh handle, so the base profile is
// extracted inside the sweep.
//
// To re-pin after an *intentional* output change: run this test, copy the
// "actual" digests from the failure messages, and update kSweepPins in the
// same change that explains why the bytes moved.
struct SweepPin {
  const char* name;
  Circuit (*build)();
  std::uint64_t patterns;  // 0 keeps the default campaign budget
  ft::VoterStyle voter;
  const char* sha256;
};

constexpr SweepPin kSweepPins[] = {
    {"c17", gen::c17, 0, ft::VoterStyle::kMajGate,
     "59d2af9be4f982cac0aae858f6f0dfaa8f19e6a7976d3a7e197b6c10a17e9eb4"},
    {"c432", gen::c432, 1024, ft::VoterStyle::kMajGate,
     "71c8e6b233c8a9855c96f1df521bc34e878c3fd008872e96ed855fb8d56a2940"},
    {"c17-two-input", gen::c17, 0, ft::VoterStyle::kTwoInput,
     "8c66f2feaaf205f8a6879dd5d1825066199b8fae1d072f652223b6691a92f4a0"},
};

TEST(Harden, FullSweepJsonMatchesPinnedDigests) {
  for (const SweepPin& pin : kSweepPins) {
    SweepOptions options;
    if (pin.patterns != 0) options.campaign.patterns = pin.patterns;
    options.voter = pin.voter;
    const ParetoResult result =
        pareto_sweep(analysis::compile(pin.build()), options);
    std::ostringstream json;
    exec::write_result_json(json, analysis::make_result(pin.name, result));
    EXPECT_EQ(util::sha256_hex(json.str()), pin.sha256) << pin.name;
  }
}

}  // namespace
}  // namespace enb::harden
