// Judge-style golden-digest harness (the as6325400 fault-simulation
// discipline): run one fixed random campaign per suite circuit, SHA-256 the
// `.ans` bytes, and compare against the checked-in table below. Any engine
// change that perturbs a single detection bit, pattern draw, net name, or
// format byte fails loudly with a digest diff.
//
// The campaign is pinned completely by (patterns, seed, shard_patterns,
// collapse) plus the determinism contract: shard streams make the bytes
// independent of thread count — re-checked here explicitly.
//
// To re-pin after an *intentional* output change: run this binary, copy the
// "actual" digests from the failure messages, and update kJudgeTable in the
// same change that explains why the bytes moved.
// PR 8 extends the same discipline to the static reasoning engine: the
// `cec` JSON bytes for each scale-suite circuit against its TMR'd self are
// pinned below (kCecJudgeTable), and the pruned-universe `.ans` bytes are
// required to match kJudgeTable *unchanged* — the untestable-class prover
// may only skip faults that never detect, so pruning must not move a byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "fault/campaign.hpp"
#include "fault/untestable.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "util/sha256.hpp"

namespace enb::fault {
namespace {

// One fixed campaign shape for every circuit: small enough that the whole
// table (standard + scale suites) grades in seconds, sharded so the
// cross-shard merge is always exercised.
CampaignOptions judge_options() {
  CampaignOptions options;
  options.patterns = 24;
  options.seed = 0xD1CE;
  options.shard_patterns = 8;
  return options;
}

std::string judge_ans(const std::string& name, const CampaignOptions& options,
                      exec::Parallelism how = {}) {
  const netlist::Circuit circuit = gen::find_benchmark(name).build();
  const FaultUniverse universe =
      FaultUniverse::build(circuit, options.collapse);
  const DetectionTable table =
      build_detection_table(circuit, circuit, universe, options, how);
  std::ostringstream out;
  write_ans(out, circuit, universe, table);
  return out.str();
}

struct JudgeEntry {
  const char* name;
  const char* sha256;
};

constexpr JudgeEntry kJudgeTable[] = {
    {"c17",
     "01b6262fe72b6a6092c26f2ae8342560857e424cfc62adb15ffcfda5fcc10bea"},
    {"parity8",
     "f14f0d9b3767e0be3b76b86e0ed4e91334c879a7bdde41ebd56638bac6851660"},
    {"parity16",
     "85194b3f84d9de56af47417f21b82082f566037ee6b8cd2bcf9d704d39de71b2"},
    {"rca8",
     "c9a231e8fd44b8772c45339e94be3bf9c6608685496f6fad692085ba5759faad"},
    {"rca16",
     "99426f7c9834274ffd8715bc698915c994ad57fb2553c129450074dc8abca724"},
    {"rca32",
     "a2399ad21c9ba983d25ec6ffc8c43748d212411073fabb2ebb26f1481868533f"},
    {"cla16",
     "95402ecbb41b3e954fce7d636cf4e5ee1a7f861fb062be921a71d797bb40b3d7"},
    {"csel16",
     "e3f28bff097a346df8fde1d979a089bc66c5e4e28e4396a3160adb7d96c4be54"},
    {"mult4",
     "d1123fe29fa94645eeadb24f54738294b5b80afa3ed0cc62902d8e048f81a9f9"},
    {"mult8",
     "c81eb91b48da83a0c8611228294b1e1fa3f8678f902fef553494c2bd9c59cbcb"},
    {"cmp16",
     "fdf4831e8fa65fb04db4e5908f29d52106592cfce9bf69f5d8f2a8c37243ec84"},
    {"alu8",
     "b5f0717221efe10bd07b3a6c2d3584264c7073d10075bda88575589772f8d490"},
    {"c432",
     "6277b4491ff26288f5ed908da9f3569aa6e82e371015d9015959ef5834abec89"},
    {"rca256",
     "14ff1655465ac3cf25ef62d3ff4955b6c951432b66e816dc162ce14a1f139cb6"},
    {"csel64",
     "f54226e0f4a25a401338fabb6636baec365d6960cb3112d700a3d26448979f89"},
    {"mult16",
     "19b390344060887525a82114ebd995f7c3847ccfba070089a94c1a328d5a93dc"},
    {"alu64",
     "263c2afcde7854fe8dcd7af7ac43263b8e3065728a6e9c5c636b3948649ba7d7"},
};

// The table covers both suites completely — a circuit added to either
// without a pinned digest fails here, not silently.
TEST(FaultJudge, TableCoversStandardAndScaleSuites) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expected.push_back(spec.name);
  }
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const JudgeEntry& entry : kJudgeTable) pinned.push_back(entry.name);
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, AnsDigestsMatchGoldenTable) {
  for (const JudgeEntry& entry : kJudgeTable) {
    EXPECT_EQ(util::sha256_hex(judge_ans(entry.name, judge_options())),
              entry.sha256)
        << entry.name;
  }
}

// The same bytes must come out at any thread count — the digest pins the
// thread independence of the whole row-level path, not just the aggregate
// counters.
TEST(FaultJudge, DigestIndependentOfThreads) {
  const std::string name = "rca32";
  const std::string baseline =
      util::sha256_hex(judge_ans(name, judge_options()));
  EXPECT_EQ(util::sha256_hex(judge_ans(name, judge_options(),
                                       exec::Parallelism::dedicated(8))),
            baseline);
}

// ---- static-reasoning digests (PR 8) --------------------------------------

// The `cec` row exactly as the batch JSON writer emits it: one scale-suite
// circuit against its own TMR transform, default CecOptions. Pins the whole
// verdict surface — stage attribution (structural vs BDD), output counts,
// and the JSON byte format the server streams.
std::string judge_cec_json(const std::string& name,
                           exec::Parallelism how = {}) {
  const netlist::Circuit base = gen::find_benchmark(name).build();
  analysis::AnalysisRequest request;
  request.name = name + "_vs_tmr";
  request.circuit = analysis::compile(gen::find_benchmark(name).build());
  request.golden = analysis::compile(ft::nmr_transform(base).circuit);
  request.options = analysis::CecRequest{};
  const analysis::AnalysisResult result =
      exec::evaluate_requests({request}, how).front();
  std::ostringstream out;
  exec::write_result_json(out, result);
  return out.str();
}

constexpr JudgeEntry kCecJudgeTable[] = {
    {"c432",
     "109922a6c4937a5d3468f0059849d2d9f9230fa4a78bbc630ccede782350b33f"},
    {"rca256",
     "3cebec2f1520889131b327ef19cbd815f6cf854f4f4b17cc190d5cf296a85257"},
    {"csel64",
     "16bac951b00467a523370584c58e0038fcbecc19d41b640ee745dfd6864fb19f"},
    {"mult16",
     "43ff4bb4ba6588b4f0d74fef604d1af08d07069dc7fac4a5c563817d2783fe3e"},
    {"alu64",
     "756077ad04e7d98d4824e61c50f4d5b2945245d5d7dc64e6caa4c759baa4fbcd"},
};

TEST(FaultJudge, CecTableCoversScaleSuite) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const JudgeEntry& entry : kCecJudgeTable) pinned.push_back(entry.name);
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, CecJsonDigestsMatchGoldenTable) {
  for (const JudgeEntry& entry : kCecJudgeTable) {
    EXPECT_EQ(util::sha256_hex(judge_cec_json(entry.name)), entry.sha256)
        << entry.name << " actual bytes: " << judge_cec_json(entry.name);
  }
}

TEST(FaultJudge, CecJsonDigestIndependentOfThreads) {
  const std::string baseline = judge_cec_json("csel64");
  EXPECT_EQ(judge_cec_json("csel64", exec::Parallelism::serial()), baseline);
  EXPECT_EQ(judge_cec_json("csel64", exec::Parallelism::dedicated(8)),
            baseline);
}

// Pruned-universe `.ans` bytes against the *unpruned* golden table: the
// prover may only remove faults that never detect, so every row — including
// the rows of the pruned classes — must come out byte-identical.
std::string judge_pruned_ans(const std::string& name,
                             const CampaignOptions& options,
                             exec::Parallelism how = {}) {
  const netlist::Circuit circuit = gen::find_benchmark(name).build();
  const FaultUniverse universe = FaultUniverse::build(
      circuit, options.collapse, /*prune_untestable=*/true);
  const DetectionTable table =
      build_detection_table(circuit, circuit, universe, options, how);
  std::ostringstream out;
  write_ans(out, circuit, universe, table);
  return out.str();
}

TEST(FaultJudge, PrunedAnsBytesMatchUnprunedGoldenTable) {
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    for (const JudgeEntry& entry : kJudgeTable) {
      if (spec.name != entry.name) continue;
      CampaignOptions options = judge_options();
      options.prune_untestable = true;
      EXPECT_EQ(util::sha256_hex(judge_pruned_ans(entry.name, options)),
                entry.sha256)
          << entry.name;
    }
  }
}

TEST(FaultJudge, PrunedAnsDigestIndependentOfThreads) {
  const std::string name = "csel64";
  CampaignOptions pruning = judge_options();
  pruning.prune_untestable = true;
  // Non-vacuity: the carry-select tree really has untestable classes.
  {
    const netlist::Circuit circuit = gen::find_benchmark(name).build();
    const FaultUniverse universe =
        FaultUniverse::build(circuit, pruning.collapse, true);
    EXPECT_GT(universe.num_untestable(), 0u);
  }
  const std::string baseline =
      util::sha256_hex(judge_pruned_ans(name, pruning));
  EXPECT_EQ(util::sha256_hex(judge_ans(name, judge_options())), baseline);
  EXPECT_EQ(util::sha256_hex(judge_pruned_ans(
                name, pruning, exec::Parallelism::dedicated(8))),
            baseline);
}

}  // namespace
}  // namespace enb::fault
