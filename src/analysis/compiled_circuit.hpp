// CompiledCircuit: the shared, immutable circuit handle of the analysis
// layer.
//
// The paper's workflow is "one circuit, many analyses": a design's profile
// (s, S0, sw0, k, d0) feeds the Theorem 1-4 bounds at many (eps, delta)
// points, its stats feed reports, and the mapped variant feeds the Section 6
// benchmark flow. CompiledCircuit amortizes the design-derived artifacts
// once: it wraps a netlist::Circuit (taken by move — compiling never copies)
// behind a shared_ptr and computes stats, extracted profiles and mapped
// variants lazily, caching each on first use.
//
// Contract:
//   - Handles are cheap value types (one shared_ptr); copying a handle never
//     copies the netlist, and every copy observes the same caches.
//   - The wrapped circuit is immutable for the life of the handle; cached
//     artifacts are therefore valid forever.
//   - All accessors are thread-safe; concurrent first calls compute an
//     artifact exactly once.
//   - Profiles are cached per core::ProfileOptions value.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/profile.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "netlist/stats.hpp"

namespace enb::analysis {

class CompiledCircuit {
 public:
  // Empty handle; valid() is false and every accessor throws
  // std::logic_error. Assign a compile() result to use it.
  CompiledCircuit() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

  [[nodiscard]] const netlist::Circuit& circuit() const;
  [[nodiscard]] const std::string& name() const;

  // ---- cached derived artifacts ----

  [[nodiscard]] const netlist::CircuitStats& stats() const;

  // The (s, S0, sw0, k, d0) profile, extracted on first use and cached per
  // options value. `how` only controls the parallelism of a cache miss; the
  // cached value is bit-identical for any choice. The reference stays valid
  // for the life of the handle.
  [[nodiscard]] const core::CircuitProfile& profile(
      const core::ProfileOptions& options = {},
      exec::Parallelism how = {}) const;

  // The same cached entry with the per-node activity the profile's sw0
  // averages (what harden/derive.hpp copies into a hardened variant's
  // profile). Shares profile()'s cache, counters and lifetime.
  [[nodiscard]] const core::ProfileExtraction& extraction(
      const core::ProfileOptions& options = {},
      exec::Parallelism how = {}) const;

  // Cache fill for a profile derived from another handle's extraction
  // without simulating this circuit: the harden sweep's proved candidates
  // (harden/derive.hpp). `extraction` must be the bit-identical value
  // core::profile_job would produce for `options`; every other caller uses
  // profile(). A fill counts as one derivation
  // (analysis-profile-derived-total), never as an extraction. A
  // pre-existing entry for equal options wins (the values are equal by
  // contract).
  void store_profile(const core::ProfileOptions& options,
                     core::ProfileExtraction extraction) const;

  // Number of profile extractions this handle has performed (profile() and
  // extraction() misses; derived fills are not extractions). The
  // cache-sharing tests pin this to 1 for a whole sweep.
  [[nodiscard]] std::uint64_t profile_extractions() const;

  // The circuit mapped to the generic max-fanin-K library, compiled and
  // cached per K. Mapping verifies equivalence (map_to_library) on the first
  // call only.
  [[nodiscard]] CompiledCircuit mapped(int max_fanin = 3) const;

  // ---- identity ----

  // 64-bit FNV-1a over the circuit's canonical .bench serialization: a
  // *content* identity, unlike same_handle(), so it survives dropping and
  // recompiling the handle (the server's result cache stays warm across
  // registry evictions). Computed on first use and cached.
  [[nodiscard]] std::uint64_t content_fingerprint() const;

  // True when both handles share one compiled circuit (and therefore one
  // artifact cache).
  [[nodiscard]] bool same_handle(const CompiledCircuit& other) const noexcept {
    return impl_ == other.impl_;
  }

 private:
  struct Impl;
  explicit CompiledCircuit(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}

  [[nodiscard]] Impl& checked() const;

  std::shared_ptr<Impl> impl_;

  friend CompiledCircuit compile(netlist::Circuit circuit);
};

// The only way to make a handle: takes ownership of `circuit` (move it in —
// compiling itself never copies a netlist).
[[nodiscard]] CompiledCircuit compile(netlist::Circuit circuit);

}  // namespace enb::analysis
