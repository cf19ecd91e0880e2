// All-kinds byte pin: one request of every analysis kind, evaluated through
// the batch engine at three thread policies — alone, as a one-request batch,
// and together in one batch — must serialize to the same write_result_json
// bytes, and those bytes must hash to the SHA-256 digests pinned below.
//
// The request set is examples/batch_smoke.manifest (one job per kind) plus
// two sampled shapes the smoke set lacks: a 17-input profile whose activity
// is Monte-Carlo and whose sensitivity is sampled, and a sampled sensitivity
// request. Every run resolves fresh handles, so each path extracts its own
// profiles instead of reading another path's cache.
//
// To re-pin after an *intentional* output change: run this binary, copy the
// "actual" digests from the failure messages, and update kPinTable in the
// same change that explains why the bytes moved.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"
#include "util/sha256.hpp"

namespace enb::exec {
namespace {

using analysis::AnalysisRequest;
using analysis::AnalysisResult;

// examples/batch_smoke.manifest's job lines verbatim, then the sampled
// sensitivity request (rca16 has 33 inputs, past the exact cap).
constexpr const char* kSmokeManifest = R"(
rel-c17     kind=reliability  circuit=c17     eps=0.02 budget=2048 seed=5
worst-c17   kind=worst-case   circuit=c17     eps=0.05 budget=512
act-rca8    kind=activity     circuit=rca8    budget=512
sens-par8   kind=sensitivity  circuit=parity8
bound-mult4 kind=energy-bound circuit=mult4   eps=0.01 delta=0.01 leakage=0.5
prof-rca8   kind=profile      circuit=rca8    budget=512
fault-c17   kind=fault-campaign circuit=c17 mode=exhaustive seed=3 drop=1
lint-c17    kind=lint         circuit=c17
cec-c17     kind=cec          circuit=c17     golden=c17
harden-c17  kind=harden       circuit=c17     budget=64 style=tmr
sens-rca16  kind=sensitivity  circuit=rca16   budget=64 seed=9
)";

// The pinned request set, on freshly compiled handles (shared within one
// call, like the CLI's memoized resolver).
std::vector<AnalysisRequest> pin_requests() {
  std::map<std::string, analysis::CompiledCircuit> handles;
  std::istringstream manifest(kSmokeManifest);
  std::vector<AnalysisRequest> requests = parse_manifest_requests(
      manifest, [&handles](const std::string& spec) {
        auto it = handles.find(spec);
        if (it == handles.end()) {
          it = handles
                   .emplace(spec, analysis::compile(
                                      gen::find_benchmark(spec).build()))
                   .first;
        }
        return it->second;
      });
  // rca8 has 17 inputs: Monte-Carlo activity shards, and sampled
  // sensitivity shards once the exact cap sits below the input count.
  analysis::ProfileRequest profile;
  profile.options.activity_pairs = 256;
  profile.options.sensitivity_exact_max_inputs = 8;
  profile.options.sensitivity_sample_words = 96;
  AnalysisRequest sampled;
  sampled.name = "prof-rca8-sampled";
  sampled.circuit = handles.at("rca8");
  sampled.options = profile;
  requests.push_back(std::move(sampled));
  return requests;
}

std::string result_json(const AnalysisResult& result) {
  std::ostringstream out;
  write_result_json(out, result);
  return out.str();
}

struct PinEntry {
  const char* name;
  const char* sha256;
};

constexpr PinEntry kPinTable[] = {
    {"rel-c17",
     "354be8bb7ac048322d7c96b763e6cfedee5d983a1336131234025c46f900f47d"},
    {"worst-c17",
     "4a6326262d6bf75657348fc1cc602fad3c04d82afecca646dca91a1c5c104c0b"},
    {"act-rca8",
     "63f63cf94ea5c91ef9af489dbefaa0bd5ac4637d3a7d5147e3035d62fbf755db"},
    {"sens-par8",
     "e2393abe27258ac012a12a3dcb56cca9445d3e2a9ca1e9fc6858e802e43a9837"},
    {"bound-mult4",
     "29a11849d00878099249c7910efb9d8379ffb128d6daeba3a30e2ac13f9b5fcf"},
    {"prof-rca8",
     "497c452ad2f58b91eb0181acc427cd89411eac316f00dac91439d75b99846414"},
    {"fault-c17",
     "71890f05cf467cf9477efd319f5ddeb2b534d71b81b2ac3aa9beec3b77978a38"},
    {"lint-c17",
     "341a2df21c6d1deb1235704798f2cbea3c7e9bf6a5fcbe7089e322e1978f0a0a"},
    {"cec-c17",
     "164b03c30028059634e9b4cde58025833bbc6aa7683544d7cd3d604106fae9ec"},
    {"harden-c17",
     "50f4b6eb9a1a7d15eb8e77c35ea36c040fcea0eb591fff5dc16513db9678bc1a"},
    {"sens-rca16",
     "5d2ce0a77231d06372b9c35c01648f387ddac9c271699fff9efe8780778bede3"},
    {"prof-rca8-sampled",
     "36ae282a20737fcc9c6e7ccba9106eb5017f21e830bf9cc6c1c255925e6565c4"},
};

TEST(KindPin, RequestSetCoversEveryKind) {
  std::set<analysis::AnalysisKind> kinds;
  for (const AnalysisRequest& request : pin_requests()) {
    kinds.insert(request.kind());
  }
  EXPECT_EQ(kinds.size(),
            static_cast<std::size_t>(analysis::AnalysisKind::kHarden) + 1);
}

// Each request alone, as a one-request batch, at 1/0/64 threads.
TEST(KindPin, DirectResultsMatchPinnedDigests) {
  for (const unsigned threads : {1U, 0U, 64U}) {
    const std::vector<AnalysisRequest> requests = pin_requests();
    ASSERT_EQ(requests.size(), std::size(kPinTable));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(requests[i].name, kPinTable[i].name);
      const AnalysisResult result =
          evaluate_requests({requests[i]}, Parallelism{threads}).front();
      EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
      EXPECT_EQ(util::sha256_hex(result_json(result)), kPinTable[i].sha256)
          << result.name << " threads=" << threads << ": "
          << result_json(result);
    }
  }
}

// The whole set in one batch: co-scheduling never reaches the bytes.
TEST(KindPin, BatchedResultsMatchDirectBytesAtEveryThreadPolicy) {
  std::vector<std::string> direct;
  for (const AnalysisRequest& request : pin_requests()) {
    direct.push_back(result_json(evaluate_requests({request}).front()));
  }
  for (const unsigned threads : {1U, 0U, 64U}) {
    const std::vector<AnalysisResult> batched =
        evaluate_requests(pin_requests(), Parallelism{threads});
    ASSERT_EQ(batched.size(), direct.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(result_json(batched[i]), direct[i])
          << batched[i].name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace enb::exec
