// Handle registry + result cache semantics: LRU bounds, counters, and the
// canonical-spec / fingerprint identities that make cross-request result
// memoization sound.
#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "gen/suite.hpp"

namespace enb::serve {
namespace {

analysis::CompiledCircuit compile_suite(const std::string& name) {
  return analysis::compile(gen::find_benchmark(name).build());
}

// ---- canonical spec ------------------------------------------------------

TEST(CanonicalSpec, EqualOptionsSerializeIdentically) {
  analysis::ReliabilityRequest a;
  a.epsilon = 0.02;
  a.options.trials = 4096;
  analysis::ReliabilityRequest b = a;
  EXPECT_EQ(analysis::canonical_spec(a), analysis::canonical_spec(b));
}

TEST(CanonicalSpec, EveryKnobReachesTheSpec) {
  // Each mutation below changes a value-relevant knob and must change the
  // canonical spec — a missed field would let the result cache alias two
  // different computations.
  analysis::ReliabilityRequest rel;
  const std::string base = analysis::canonical_spec(rel);
  {
    auto m = rel;
    m.epsilon = 0.5;
    EXPECT_NE(analysis::canonical_spec(m), base);
  }
  {
    auto m = rel;
    m.options.trials += 1;
    EXPECT_NE(analysis::canonical_spec(m), base);
  }
  {
    auto m = rel;
    m.options.seed += 1;
    EXPECT_NE(analysis::canonical_spec(m), base);
  }
  {
    auto m = rel;
    m.options.input_one_probability = 0.25;
    EXPECT_NE(analysis::canonical_spec(m), base);
  }
  {
    // Shard shape feeds the counter-based streams, so it is value-relevant.
    auto m = rel;
    m.options.shard_passes += 1;
    EXPECT_NE(analysis::canonical_spec(m), base);
  }
}

TEST(CanonicalSpec, KindsNeverCollide) {
  // Default-constructed specs of different kinds must never serialize
  // equal.
  const std::vector<std::string> specs = {
      analysis::canonical_spec(analysis::ReliabilityRequest{}),
      analysis::canonical_spec(analysis::WorstCaseRequest{}),
      analysis::canonical_spec(analysis::ActivityRequest{}),
      analysis::canonical_spec(analysis::SensitivityRequest{}),
      analysis::canonical_spec(analysis::EnergyBoundRequest{}),
      analysis::canonical_spec(analysis::ProfileRequest{})};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i], specs[j]) << i << " vs " << j;
    }
  }
}

TEST(CanonicalSpec, ProfileOverrideContentsAreIncluded) {
  analysis::EnergyBoundRequest a;
  const std::string base = analysis::canonical_spec(a);
  analysis::EnergyBoundRequest b;
  core::CircuitProfile profile;
  profile.name = "p";
  profile.size_s0 = 10.0;
  b.profile_override = profile;
  const std::string with_override = analysis::canonical_spec(b);
  EXPECT_NE(with_override, base);

  analysis::EnergyBoundRequest c = b;
  c.profile_override->size_s0 = 11.0;
  EXPECT_NE(analysis::canonical_spec(c), with_override);
}

// ---- content fingerprint -------------------------------------------------

TEST(Fingerprint, SameContentSameFingerprintAcrossHandles) {
  const analysis::CompiledCircuit a = compile_suite("c17");
  const analysis::CompiledCircuit b = compile_suite("c17");
  EXPECT_FALSE(a.same_handle(b));
  EXPECT_EQ(a.content_fingerprint(), b.content_fingerprint());
  EXPECT_NE(a.content_fingerprint(), compile_suite("mult4").content_fingerprint());
}

// ---- handle registry -----------------------------------------------------

TEST(HandleRegistry, GetOrLoadLoadsOnceAndCountsHits) {
  HandleRegistry registry(4);
  int loads = 0;
  const auto loader = [&loads] {
    ++loads;
    return compile_suite("c17");
  };
  const HandleInfo first = registry.get_or_load("c17", loader);
  const HandleInfo second = registry.get_or_load("c17", loader);
  EXPECT_EQ(loads, 1);
  EXPECT_TRUE(first.circuit.same_handle(second.circuit));
  EXPECT_EQ(first.fingerprint, second.fingerprint);

  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.handles, 1u);
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(HandleRegistry, ConcurrentColdLoadsOfOneNameInvokeLoaderOnce) {
  HandleRegistry registry(4);
  std::atomic<int> loads{0};
  const auto loader = [&loads] {
    loads.fetch_add(1);
    // Widen the race window: every other thread must wait, not re-load.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return compile_suite("c17");
  };
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> fingerprints(4, 0);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      fingerprints[static_cast<std::size_t>(i)] =
          registry.get_or_load("c17", loader).fingerprint;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(loads.load(), 1);
  for (const std::uint64_t fingerprint : fingerprints) {
    EXPECT_EQ(fingerprint, fingerprints[0]);
  }
  EXPECT_EQ(registry.stats().loads, 1u);
  EXPECT_EQ(registry.stats().hits, 3u);
}

TEST(HandleRegistry, FailedLoadReleasesTheNameForRetry) {
  HandleRegistry registry(4);
  int calls = 0;
  EXPECT_THROW(
      (void)registry.get_or_load("x",
                                 [&]() -> analysis::CompiledCircuit {
                                   ++calls;
                                   throw std::runtime_error("boom");
                                 }),
      std::runtime_error);
  const HandleInfo loaded = registry.get_or_load("x", [&] {
    ++calls;
    return compile_suite("c17");
  });
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(loaded.circuit.valid());
}

TEST(HandleRegistry, EvictsLeastRecentlyUsedAboveCapacity) {
  HandleRegistry registry(2);
  registry.put("a", compile_suite("c17"));
  registry.put("b", compile_suite("parity8"));
  // Touch "a" so "b" is the LRU entry when "c" arrives.
  EXPECT_TRUE(registry.find("a").has_value());
  registry.put("c", compile_suite("mult4"));

  EXPECT_TRUE(registry.find("a").has_value());
  EXPECT_FALSE(registry.find("b").has_value());
  EXPECT_TRUE(registry.find("c").has_value());
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_EQ(registry.stats().handles, 2u);
}

TEST(HandleRegistry, ExplicitEvictAndClear) {
  HandleRegistry registry(8);
  registry.put("a", compile_suite("c17"));
  registry.put("b", compile_suite("parity8"));
  EXPECT_TRUE(registry.evict("a"));
  EXPECT_FALSE(registry.evict("a"));  // already gone
  EXPECT_EQ(registry.clear(), 1u);
  EXPECT_EQ(registry.stats().handles, 0u);
}

TEST(HandleRegistry, ReplacingANameKeepsOneEntry) {
  HandleRegistry registry(8);
  registry.put("a", compile_suite("c17"));
  registry.put("a", compile_suite("mult4"));
  const auto entry = registry.find("a");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->circuit.name(), compile_suite("mult4").name());
  EXPECT_EQ(registry.stats().handles, 1u);
}

// ---- result cache --------------------------------------------------------

analysis::AnalysisResult make_ok_result(const std::string& name,
                                        double value) {
  analysis::AnalysisResult result;
  result.name = name;
  result.kind = analysis::AnalysisKind::kActivity;
  result.ok = true;
  result.metrics = {{"avg_gate_toggle_rate", value}};
  return result;
}

TEST(ResultCache, HitRelabelsNameAndIndex) {
  ResultCache cache(8);
  EXPECT_FALSE(cache.find("k1", "first", 0).has_value());
  cache.store("k1", make_ok_result("first", 0.5));

  const auto hit = cache.find("k1", "renamed", 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "renamed");
  EXPECT_EQ(hit->index, 7u);
  EXPECT_EQ(hit->metric("avg_gate_toggle_rate"), 0.5);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedAboveCapacity) {
  ResultCache cache(2);
  cache.store("a", make_ok_result("a", 1.0));
  cache.store("b", make_ok_result("b", 2.0));
  EXPECT_TRUE(cache.find("a", "a", 0).has_value());  // b becomes LRU
  cache.store("c", make_ok_result("c", 3.0));

  EXPECT_TRUE(cache.find("a", "a", 0).has_value());
  EXPECT_FALSE(cache.find("b", "b", 0).has_value());
  EXPECT_TRUE(cache.find("c", "c", 0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, DuplicateStoreKeepsOneEntry) {
  ResultCache cache(8);
  cache.store("k", make_ok_result("x", 1.0));
  cache.store("k", make_ok_result("y", 1.0));  // equal by contract
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().stores, 2u);
}

TEST(ResultCache, ClearDropsEverything) {
  ResultCache cache(8);
  cache.store("a", make_ok_result("a", 1.0));
  cache.store("b", make_ok_result("b", 2.0));
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.find("a", "a", 0).has_value());
}

// ---- cache keys ----------------------------------------------------------

TEST(ResultCacheKey, DependsOnContentNotHandleIdentity) {
  analysis::AnalysisRequest a;
  a.name = "first";
  a.circuit = compile_suite("c17");
  a.options = analysis::ActivityRequest{};
  analysis::AnalysisRequest b;
  b.name = "second";  // the display name is not part of the key
  b.circuit = compile_suite("c17");  // distinct handle, same content
  b.options = analysis::ActivityRequest{};
  EXPECT_EQ(result_cache_key(a), result_cache_key(b));

  b.circuit = compile_suite("mult4");
  EXPECT_NE(result_cache_key(a), result_cache_key(b));
}

TEST(ResultCacheKey, DistinguishesGoldenAndOptions) {
  analysis::AnalysisRequest base;
  base.circuit = compile_suite("c17");
  base.options = analysis::ReliabilityRequest{};
  const std::string key = result_cache_key(base);

  analysis::AnalysisRequest with_golden = base;
  with_golden.golden = compile_suite("c17");
  EXPECT_NE(result_cache_key(with_golden), key);

  analysis::AnalysisRequest other_options = base;
  analysis::ReliabilityRequest spec;
  spec.options.seed = 1234;
  other_options.options = spec;
  EXPECT_NE(result_cache_key(other_options), key);
}

TEST(ResultCacheKey, EmptyHandleOverrideRequestsWork) {
  analysis::EnergyBoundRequest spec;
  core::CircuitProfile profile;
  profile.name = "p";
  profile.size_s0 = 12.0;
  profile.depth_d0 = 3;
  profile.avg_fanin_k = 2.0;
  profile.avg_activity_sw0 = 0.25;
  profile.sensitivity_s = 2.0;
  spec.profile_override = profile;
  analysis::AnalysisRequest request;
  request.name = "override";
  request.options = spec;  // empty circuit handle
  const std::string key = result_cache_key(request);
  EXPECT_FALSE(key.empty());

  spec.profile_override->size_s0 = 13.0;
  request.options = spec;
  EXPECT_NE(result_cache_key(request), key);
}

}  // namespace
}  // namespace enb::serve
