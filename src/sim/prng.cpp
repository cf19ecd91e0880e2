#include "sim/prng.hpp"

#include <cmath>

namespace enb::sim {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Xoshiro256::next_real() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return draw % bound;
}

std::uint64_t bernoulli_word(Xoshiro256& rng, double p,
                             int precision_bits) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  if (precision_bits < 1) precision_bits = 1;
  if (precision_bits > 62) precision_bits = 62;
  // Quantize p to q / 2^precision_bits, rounding to nearest.
  const double scaled = std::ldexp(p, precision_bits);
  auto q = static_cast<std::uint64_t>(std::llround(scaled));
  if (q == 0) q = 1;  // keep p > 0 effective
  const std::uint64_t full = std::uint64_t{1} << precision_bits;
  if (q >= full) q = full - 1;
  // Binary expansion: process bits of q LSB-first. acc starts at "probability
  // 0"; OR-ing with a fresh uniform word where the bit is 1, AND-ing where it
  // is 0, yields P(bit set) == q / 2^precision_bits exactly.
  std::uint64_t acc = 0;
  for (int i = 0; i < precision_bits; ++i) {
    const std::uint64_t r = rng.next();
    acc = ((q >> i) & 1U) != 0 ? (acc | r) : (acc & r);
  }
  return acc;
}

}  // namespace enb::sim
