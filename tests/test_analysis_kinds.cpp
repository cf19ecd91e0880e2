// Pins the per-kind request vocabulary: the exact canonical-spec bytes of
// every analysis kind (the serve result-cache key component), the manifest
// grammar as an accept/reject matrix over every key x every kind, and the
// kind table (analysis/kinds.hpp) every front end reads. The spec and
// grammar values must never move: a changed spec string silently orphans
// every cached result, and a changed verdict breaks user manifests.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/kinds.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"

namespace enb::analysis {
namespace {

// ---- canonical spec pins -------------------------------------------------

TEST(KindSpecPins, EveryKindAtItsDefaults) {
  EXPECT_EQ(canonical_spec(ReliabilityRequest{}),
            "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=7 "
            "p1=0x1p-1 shard_passes=32");
  EXPECT_EQ(canonical_spec(WorstCaseRequest{}),
            "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 "
            "trials_per_input=4096 seed=47825");
  EXPECT_EQ(canonical_spec(ActivityRequest{}),
            "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256");
  EXPECT_EQ(canonical_spec(SensitivityRequest{}),
            "sensitivity max_exact_inputs=22 sample_words=256 seed=3 "
            "shard_words=32");
  EXPECT_EQ(canonical_spec(EnergyBoundRequest{}),
            "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 "
            "leakage_fraction=0x1p-1 couple_leakage_to_delay=0 "
            "activity_pairs=4096 prefer_exact_activity=1 "
            "exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 "
            "sensitivity_sample_words=256 profile_seed=17");
  EXPECT_EQ(canonical_spec(ProfileRequest{}),
            "profile activity_pairs=4096 prefer_exact_activity=1 "
            "exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 "
            "sensitivity_sample_words=256 profile_seed=17");
  EXPECT_EQ(canonical_spec(FaultCampaignRequest{}),
            "fault-campaign patterns=256 exhaustive=0 seed=64023 "
            "shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 "
            "prune=0");
  EXPECT_EQ(canonical_spec(LintRequest{}),
            "lint exhaustive_cap=20 allow_voter_replicas=0");
  EXPECT_EQ(canonical_spec(CecRequest{}),
            "cec seed=52933 signature_words=8 bdd_node_limit=4194304");
  EXPECT_EQ(canonical_spec(HardenRequest{}),
            "harden style=3:all granularity=3:all top_k=0 voter=0 "
            "eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 "
            "leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 "
            "shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 "
            "prune=1 cec_seed=52933 cec_signature_words=8 "
            "cec_bdd_node_limit=4194304");
}

TEST(KindSpecPins, HardenWithPinnedSweepAxes) {
  HardenRequest request;
  request.options.style = harden::Style::kSelective;
  request.options.granularity = harden::Granularity::kCone;
  request.options.top_k = 2;
  EXPECT_EQ(canonical_spec(request),
            "harden style=9:selective granularity=4:cone top_k=2 voter=0 "
            "eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 "
            "leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 "
            "shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 "
            "prune=1 cec_seed=52933 cec_signature_words=8 "
            "cec_bdd_node_limit=4194304");
}

TEST(KindSpecPins, EnergyBoundWithProfileOverride) {
  EnergyBoundRequest request;
  core::CircuitProfile profile;
  profile.name = "override me";
  profile.num_inputs = 5;
  profile.num_outputs = 2;
  profile.size_s0 = 6.0;
  profile.depth_d0 = 3;
  profile.avg_fanin_k = 2.0;
  profile.max_fanin = 2;
  profile.avg_activity_sw0 = 0.375;
  profile.sensitivity_s = 4.0;
  profile.sensitivity_exact = true;
  request.profile_override = profile;
  EXPECT_EQ(canonical_spec(request),
            "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 "
            "leakage_fraction=0x1p-1 couple_leakage_to_delay=0 "
            "activity_pairs=4096 prefer_exact_activity=1 "
            "exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 "
            "sensitivity_sample_words=256 profile_seed=17 "
            "override_name=11:override me override_inputs=5 "
            "override_outputs=2 override_s0=0x1.8p+2 override_d0=3 "
            "override_k=0x1p+1 override_max_fanin=2 override_sw0=0x1.8p-2 "
            "override_s=0x1p+2 override_exact=1");
}

// ---- manifest grammar ----------------------------------------------------

const std::vector<std::string>& all_kinds() {
  static const std::vector<std::string> kinds = {
      "reliability", "worst-case", "activity", "sensitivity", "energy-bound",
      "profile", "fault-campaign", "lint", "cec", "harden"};
  return kinds;
}

std::vector<AnalysisRequest> parse(const std::string& text) {
  static const CompiledCircuit c17 =
      compile(gen::find_benchmark("c17").build());
  std::istringstream in(text);
  return exec::parse_manifest_requests(
      in, [](const std::string&) { return c17; });
}

bool accepts(const std::string& text) {
  try {
    return parse(text).size() == 1;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

// A valid value per key; which kinds accept it is the grammar under test.
struct KeyCase {
  std::string token;
  std::set<std::string> accepted_by;  // empty = every kind
};

const std::set<std::string> kCampaignKinds = {"fault-campaign", "harden"};
const std::set<std::string> kHardenOnly = {"harden"};

TEST(ManifestKeyMatrix, EveryKeyTimesEveryKind) {
  const std::vector<KeyCase> cases = {
      // Accepted everywhere, ignored where the kind has no use for them.
      {"eps=0.05", {}},
      {"delta=0.2", {}},
      {"budget=96", {}},
      {"seed=7", {}},
      {"leakage=0.25", {}},
      {"golden=c17", {}},
      // Campaign keys: fault-campaign and harden only.
      {"mode=exhaustive", kCampaignKinds},
      {"mode=random", kCampaignKinds},
      {"drop=1", kCampaignKinds},
      {"drop=0", kCampaignKinds},
      {"sample=12", kCampaignKinds},
      {"prune=1", kCampaignKinds},
      {"prune=0", kCampaignKinds},
      // Sweep axes: harden only.
      {"style=tmr", kHardenOnly},
      {"style=selective", kHardenOnly},
      {"granularity=gate", kHardenOnly},
      {"granularity=output", kHardenOnly},
      {"top_k=3", kHardenOnly},
      // Not a key for any kind.
      {"frobnicate=1", {"(none)"}},
      {"name=x", {"(none)"}},
      {"lanes=64", {"(none)"}},
  };
  for (const std::string& kind : all_kinds()) {
    const std::string head = "job kind=" + kind + " circuit=c17";
    EXPECT_TRUE(accepts(head)) << head;
    for (const KeyCase& c : cases) {
      const bool expected =
          c.accepted_by.empty() || c.accepted_by.count(kind) != 0;
      EXPECT_EQ(accepts(head + " " + c.token), expected)
          << head << " " << c.token;
    }
  }
}

TEST(ManifestKeyMatrix, MalformedValuesAreRejectedForEveryKind) {
  const std::vector<std::string> bad = {
      "eps=abc",        "delta=0.1x", "leakage=",        "budget=12x",
      "budget=-1",      "seed=-7",    "drop=2",          "prune=2",
      "mode=sometimes", "sample=-3",  "style=quad",      "granularity=net",
      "top_k=-1",       "top_k=two",  "noequals",        "=5",
  };
  for (const std::string& kind : all_kinds()) {
    for (const std::string& token : bad) {
      const std::string line = "job kind=" + kind + " circuit=c17 " + token;
      EXPECT_FALSE(accepts(line)) << line;
    }
  }
}

// lanes= (a retired campaign knob) is an unknown key, with the same
// message for every kind.
TEST(ManifestKeyMatrix, LanesIsAnUnknownKeyForEveryKind) {
  for (const std::string& kind : all_kinds()) {
    const std::string line = "job kind=" + kind + " circuit=c17 lanes=64";
    try {
      (void)parse(line);
      ADD_FAILURE() << line << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key 'lanes'"),
                std::string::npos)
          << line << ": " << e.what();
    }
  }
}

TEST(ManifestKeyMatrix, LineLevelRejections) {
  EXPECT_FALSE(accepts("job circuit=c17"));
  EXPECT_FALSE(accepts("job kind=lint"));
  EXPECT_FALSE(accepts("job kind=bogus circuit=c17"));
  EXPECT_TRUE(accepts("job kind=worst_case circuit=c17"));
  EXPECT_TRUE(accepts("job circuit=c17 eps=0.1 kind=lint"));  // order free
  EXPECT_TRUE(parse("# comment\n\n   \n").empty());
  // A count wider than its field is rejected, naming the key, never wrapped.
  EXPECT_FALSE(accepts("j1 kind=cec circuit=c17 golden=c17 budget=4294967297"));
  EXPECT_FALSE(accepts("j1 kind=cec circuit=c17 golden=c17 budget=2147483648"));
  EXPECT_FALSE(accepts("j1 kind=harden circuit=c17 top_k=4294967297"));
  EXPECT_TRUE(accepts("j1 kind=cec circuit=c17 golden=c17 budget=2147483647"));
  EXPECT_TRUE(accepts("j1 kind=harden circuit=c17 top_k=4294967295"));
  try {
    (void)parse("j1 kind=harden circuit=c17 top_k=4294967297");
    ADD_FAILURE() << "top_k=4294967297 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'top_k'"), std::string::npos)
        << e.what();
  }
}

// Every key a kind uses, at a non-default value, lands in the canonical
// spec: pins which field each manifest key writes, per kind.
TEST(ManifestKeyMatrix, EveryKeyReachesItsField) {
  const std::string numeric = " eps=0.05 delta=0.2 budget=96 seed=7 "
                              "leakage=0.25";
  const std::string campaign =
      " mode=exhaustive drop=1 sample=12 prune=0";
  const std::map<std::string, std::string> expected = {
      {"reliability",
       "reliability eps=0x1.999999999999ap-5 trials=96 seed=7 p1=0x1p-1 "
       "shard_passes=32"},
      {"worst-case",
       "worst-case eps=0x1.999999999999ap-5 num_inputs=64 "
       "trials_per_input=96 seed=7"},
      {"activity",
       "activity sample_pairs=96 seed=7 p1=0x1p-1 shard_pairs=256"},
      {"sensitivity",
       "sensitivity max_exact_inputs=22 sample_words=96 seed=7 "
       "shard_words=32"},
      {"energy-bound",
       "energy-bound eps=0x1.999999999999ap-5 delta=0x1.999999999999ap-3 "
       "leakage_fraction=0x1p-2 couple_leakage_to_delay=0 activity_pairs=96 "
       "prefer_exact_activity=1 exact_activity_max_inputs=16 "
       "sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 "
       "profile_seed=7"},
      {"profile",
       "profile activity_pairs=96 prefer_exact_activity=1 "
       "exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 "
       "sensitivity_sample_words=256 profile_seed=7"},
      {"fault-campaign",
       "fault-campaign patterns=96 exhaustive=1 seed=7 shard_patterns=64 "
       "bundle_width=1 collapse=1 drop=1 sample=12 prune=0"},
      {"lint",
       "lint exhaustive_cap=20 allow_voter_replicas=0"},
      {"cec",
       "cec seed=7 signature_words=96 bdd_node_limit=4194304"},
      {"harden",
       "harden style=3:dwc granularity=4:gate top_k=2 voter=0 "
       "eps=0x1.999999999999ap-5 delta=0x1.999999999999ap-3 "
       "leakage_fraction=0x1p-2 patterns=96 exhaustive=1 seed=7 "
       "shard_patterns=64 bundle_width=1 collapse=1 drop=1 sample=12 "
       "prune=0 cec_seed=52933 cec_signature_words=8 "
       "cec_bdd_node_limit=4194304"},
  };
  for (const std::string& kind : all_kinds()) {
    std::string line = "job kind=" + kind + " circuit=c17" + numeric;
    if (kCampaignKinds.count(kind) != 0) line += campaign;
    if (kind == "harden") line += " style=dwc granularity=gate top_k=2";
    const std::vector<AnalysisRequest> requests = parse(line);
    ASSERT_EQ(requests.size(), 1u) << line;
    EXPECT_EQ(canonical_spec(requests[0].options), expected.at(kind)) << kind;
  }
}

TEST(ManifestKeyMatrix, LastOccurrenceOfAKeyWins) {
  const auto spec = [](const std::string& line) {
    return canonical_spec(parse(line).at(0).options);
  };
  EXPECT_EQ(spec("j kind=fault-campaign circuit=c17 mode=exhaustive "
                 "mode=random budget=1 budget=32"),
            spec("j kind=fault-campaign circuit=c17 budget=32"));
  EXPECT_EQ(spec("j kind=lint circuit=c17 kind=cec"),
            spec("j kind=cec circuit=c17"));
}

// ---- the kind table ------------------------------------------------------

TEST(KindTable, RowsFollowTheAnalysisKindOrder) {
  for (std::size_t i = 0; i < std::variant_size_v<RequestOptions>; ++i) {
    const auto kind = static_cast<AnalysisKind>(i);
    const KindInfo& row = kind_info(kind);
    EXPECT_EQ(row.defaults.index(), i);
    EXPECT_STREQ(to_string(kind), row.name);
    EXPECT_EQ(parse_analysis_kind(row.name), kind);
    EXPECT_EQ(canonical_spec(row.defaults).rfind(row.name, 0), 0u);
  }
}

TEST(KindTable, EveryHeadlineIsAMetricOfItsKind) {
  const std::vector<ResultPayload> payloads = {
      sim::ReliabilityResult{}, sim::WorstCaseResult{},
      sim::ActivityResult{},    sim::SensitivityResult{},
      core::BoundReport{},      core::CircuitProfile{},
      fault::FaultCampaignResult{}, LintReport{},
      CecResult{},              harden::ParetoResult{}};
  ASSERT_EQ(payloads.size(), std::variant_size_v<RequestOptions>);
  for (const ResultPayload& payload : payloads) {
    const AnalysisResult result = make_result("x", payload);
    const char* metric = headline_metric(result.kind);
    EXPECT_TRUE(result.metric(metric).has_value())
        << to_string(result.kind) << ": " << metric;
  }
  EXPECT_STREQ(headline_metric(AnalysisKind::kCec), "equivalent");
}

TEST(KindTable, KeyErrorsNameTheKindsThatTakeTheKey) {
  const auto error = [](RequestOptions options, const std::string& key,
                        const std::string& value) -> std::string {
    try {
      apply_key(options, key, value);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error(LintRequest{}, "mode", "random"),
            "key 'mode' does not apply to kind=lint (only "
            "kind=fault-campaign, kind=harden)");
  EXPECT_EQ(error(FaultCampaignRequest{}, "top_k", "1"),
            "key 'top_k' does not apply to kind=fault-campaign (only "
            "kind=harden)");
  EXPECT_EQ(error(LintRequest{}, "bogus", "1"), "unknown key 'bogus'");
  EXPECT_EQ(error(FaultCampaignRequest{}, "lanes", "64"),
            "unknown key 'lanes'");
}

TEST(KindTable, IgnoredKeysAreStillValidated) {
  RequestOptions lint = LintRequest{};
  const std::string before = canonical_spec(lint);
  apply_key(lint, "eps", "0.1");
  apply_key(lint, "budget", "12");
  EXPECT_EQ(canonical_spec(lint), before);
  EXPECT_THROW(apply_key(lint, "eps", "abc"), std::invalid_argument);
  EXPECT_THROW(apply_key(lint, "seed", "-1"), std::invalid_argument);
}

}  // namespace
}  // namespace enb::analysis
