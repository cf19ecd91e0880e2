// Deterministic pseudo-random number generation.
//
// Self-contained xoshiro256** seeded via splitmix64 so that every experiment
// in the repo is reproducible from a single integer seed, independent of the
// standard library's unspecified distributions.
#pragma once

#include <array>
#include <cstdint>

namespace enb::sim {

// One splitmix64 step; used for seeding and for cheap stateless streams.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  // Uniform 64-bit word.
  [[nodiscard]] std::uint64_t next() noexcept;

  // Uniform double in [0, 1).
  [[nodiscard]] double next_real() noexcept;

  // Uniform integer in [0, bound) (bound > 0), bias-free rejection sampling.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
};

// A 64-lane word whose bits are iid Bernoulli(p), with `precision_bits` of
// resolution in p (default 2^-32). Uses the binary-expansion construction:
// combining independent uniform words with AND/OR per bit of p costs one
// uniform word per precision bit, i.e. ~0.5 PRNG calls per output bit.
[[nodiscard]] std::uint64_t bernoulli_word(Xoshiro256& rng, double p,
                                           int precision_bits = 32) noexcept;

// A random input word of the Monte-Carlo estimators, each lane 1 with
// probability p: one uniform draw at p = 0.5, else bernoulli_word.
[[nodiscard]] inline std::uint64_t input_word(Xoshiro256& rng,
                                              double p) noexcept {
  return p == 0.5 ? rng.next() : bernoulli_word(rng, p);
}

}  // namespace enb::sim
