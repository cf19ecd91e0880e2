#include "analysis/compiled_circuit.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netlist/bench_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/mapper.hpp"
#include "util/sync.hpp"

namespace enb::analysis {

namespace {

// Profile-cache observability: hits (the amortization the handle design
// buys) vs extractions (the work it avoids repeating) vs derivations (fills
// copied from another handle's extraction), plus extraction wall-clock.
// Counts only — the cached values themselves are untouched.
struct ProfileMetrics {
  obs::Counter& hits =
      obs::Registry::global().counter("analysis-profile-cache-hits-total");
  obs::Counter& extractions =
      obs::Registry::global().counter("analysis-profile-extractions-total");
  obs::Counter& derived =
      obs::Registry::global().counter("analysis-profile-derived-total");
  obs::Histogram& seconds =
      obs::Registry::global().histogram("analysis-extraction-seconds");
};

ProfileMetrics& profile_metrics() {
  static ProfileMetrics metrics;
  return metrics;
}

}  // namespace

// All cached artifacts live behind one mutex. Computation happens under the
// lock: first-use costs serialize, but every artifact is computed exactly
// once and the lock is never contended on the hot (cache-hit) path for more
// than a lookup. Profiles are stored behind shared_ptr so the references
// handed out stay stable while the cache vector grows.
struct CompiledCircuit::Impl {
  explicit Impl(netlist::Circuit c) : circuit(std::move(c)) {}

  const netlist::Circuit circuit;

  mutable util::Mutex mutex;
  mutable std::optional<netlist::CircuitStats> stats ENB_GUARDED_BY(mutex);
  mutable std::vector<std::pair<core::ProfileOptions,
                                std::shared_ptr<const core::ProfileExtraction>>>
      profiles ENB_GUARDED_BY(mutex);
  mutable std::vector<std::pair<int, CompiledCircuit>> mapped
      ENB_GUARDED_BY(mutex);
  mutable std::optional<std::uint64_t> fingerprint ENB_GUARDED_BY(mutex);
  mutable std::atomic<std::uint64_t> extractions{0};
};

CompiledCircuit::Impl& CompiledCircuit::checked() const {
  if (impl_ == nullptr) {
    throw std::logic_error("CompiledCircuit: empty handle");
  }
  return *impl_;
}

const netlist::Circuit& CompiledCircuit::circuit() const {
  return checked().circuit;
}

const std::string& CompiledCircuit::name() const {
  return checked().circuit.name();
}

const netlist::CircuitStats& CompiledCircuit::stats() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.stats.has_value()) {
    impl.stats = netlist::compute_stats(impl.circuit);
  }
  return *impl.stats;
}

const core::CircuitProfile& CompiledCircuit::profile(
    const core::ProfileOptions& options, exec::Parallelism how) const {
  return extraction(options, how).profile;
}

const core::ProfileExtraction& CompiledCircuit::extraction(
    const core::ProfileOptions& options, exec::Parallelism how) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  for (const auto& [cached_options, cached] : impl.profiles) {
    if (cached_options == options) {
      profile_metrics().hits.add(1);
      return *cached;
    }
  }
  // A miss extracts under the lock: concurrent callers with equal options
  // block here and hit the cache instead of re-extracting.
  const obs::Span span("profile-extraction", {}, impl.circuit.name());
  const auto start = std::chrono::steady_clock::now();
  auto extracted = std::make_shared<const core::ProfileExtraction>(
      exec::run(core::profile_job(impl.circuit, options), how));
  profile_metrics().seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  profile_metrics().extractions.add(1);
  impl.extractions.fetch_add(1, std::memory_order_relaxed);
  impl.profiles.emplace_back(options, extracted);
  return *impl.profiles.back().second;
}

void CompiledCircuit::store_profile(const core::ProfileOptions& options,
                                    core::ProfileExtraction extraction) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  profile_metrics().derived.add(1);
  for (const auto& [cached_options, cached] : impl.profiles) {
    // An existing entry wins (the values are equal by contract).
    if (cached_options == options) return;
  }
  impl.profiles.emplace_back(
      options,
      std::make_shared<const core::ProfileExtraction>(std::move(extraction)));
}

std::uint64_t CompiledCircuit::profile_extractions() const {
  return checked().extractions.load(std::memory_order_relaxed);
}

CompiledCircuit CompiledCircuit::mapped(int max_fanin) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  for (const auto& [fanin, handle] : impl.mapped) {
    if (fanin == max_fanin) return handle;
  }
  CompiledCircuit handle =
      compile(synth::map_to_library(impl.circuit, max_fanin).circuit);
  impl.mapped.emplace_back(max_fanin, handle);
  return handle;
}

std::uint64_t CompiledCircuit::content_fingerprint() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.fingerprint.has_value()) {
    // FNV-1a over the .bench text: stable across processes and recompiles
    // of the same netlist, which is all the result cache needs.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : netlist::write_bench_string(impl.circuit)) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    impl.fingerprint = hash;
  }
  return *impl.fingerprint;
}

CompiledCircuit compile(netlist::Circuit circuit) {
  return CompiledCircuit(
      std::make_shared<CompiledCircuit::Impl>(std::move(circuit)));
}

}  // namespace enb::analysis
