// Word- and block-level bit utilities shared by the simulators.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace enb::sim {

using Word = std::uint64_t;
inline constexpr int kWordBits = 64;
inline constexpr Word kAllOnes = ~Word{0};

[[nodiscard]] inline int popcount(Word w) noexcept { return std::popcount(w); }

// Mask with the low `n` bits set (n in [0, 64]).
[[nodiscard]] constexpr Word low_mask(int n) noexcept {
  return n >= kWordBits ? kAllOnes : ((Word{1} << n) - 1);
}

// The widest pattern block: 8 words, 512 patterns.
inline constexpr int kBlockWords = 8;
inline constexpr int kBlockPatterns = kBlockWords * kWordBits;

// W words side by side, pattern p in bit p % 64 of word p / 64. It has the
// bitwise operators of a Word, so netlist::eval_gate evaluates it as one
// value, and equality means every bit is equal.
template <int W>
struct Block {
  static_assert(W >= 1 && W <= kBlockWords);
  static constexpr int kBits = W * kWordBits;

  std::array<Word, W> words{};

  // The low `n` bits set (n in [0, kBits]).
  [[nodiscard]] static constexpr Block low_mask(int n) noexcept {
    Block mask;
    for (int k = 0; k < W; ++k) {
      const int bits = n - k * kWordBits;
      mask.words[k] = bits <= 0 ? 0 : sim::low_mask(bits);
    }
    return mask;
  }

  [[nodiscard]] constexpr bool any() const noexcept {
    Word acc = 0;
    for (const Word w : words) acc |= w;
    return acc != 0;
  }
  [[nodiscard]] constexpr bool test(int p) const noexcept {
    return ((words[p / kWordBits] >> (p % kWordBits)) & 1) != 0;
  }
  // Lowest set bit at or above `from`, or kBits when there is none.
  [[nodiscard]] constexpr int find_first(int from) const noexcept {
    for (int k = from / kWordBits; k < W; ++k) {
      Word w = words[k];
      if (k == from / kWordBits) w &= ~sim::low_mask(from % kWordBits);
      if (w != 0) return k * kWordBits + std::countr_zero(w);
    }
    return kBits;
  }

  constexpr Block& operator&=(const Block& o) noexcept {
    for (int k = 0; k < W; ++k) words[k] &= o.words[k];
    return *this;
  }
  constexpr Block& operator|=(const Block& o) noexcept {
    for (int k = 0; k < W; ++k) words[k] |= o.words[k];
    return *this;
  }
  constexpr Block& operator^=(const Block& o) noexcept {
    for (int k = 0; k < W; ++k) words[k] ^= o.words[k];
    return *this;
  }
  [[nodiscard]] friend constexpr Block operator~(Block a) noexcept {
    for (Word& w : a.words) w = ~w;
    return a;
  }
  [[nodiscard]] friend constexpr Block operator&(Block a,
                                                 const Block& b) noexcept {
    return a &= b;
  }
  [[nodiscard]] friend constexpr Block operator|(Block a,
                                                 const Block& b) noexcept {
    return a |= b;
  }
  [[nodiscard]] friend constexpr Block operator^(Block a,
                                                 const Block& b) noexcept {
    return a ^= b;
  }
  [[nodiscard]] friend constexpr bool operator==(const Block&,
                                                 const Block&) = default;
};

// Words needed for `patterns` patterns (rounded up).
[[nodiscard]] constexpr int words_for(int patterns) noexcept {
  return (patterns + kWordBits - 1) / kWordBits;
}

// Bit-sliced per-lane counter: accumulates up to 2^Slices - 1 indicator words
// into 64 independent lane counts using bitwise ripple-carry addition. Used
// for per-lane sensitivity counts and bundle-majority decoding, where keeping
// 64 parallel small integers beats unpacking lanes.
class LaneCounter {
 public:
  // `max_count` is the largest total that will be accumulated; counts beyond
  // it would overflow silently, so the constructor sizes the slice vector to
  // hold it.
  explicit LaneCounter(int max_count);

  // Adds 1 to every lane whose bit is set in `indicator`.
  void add(Word indicator) noexcept;

  // Count currently held for `lane` (0..63).
  [[nodiscard]] int lane(int lane_index) const noexcept;

  // Word whose lane bits are set where count > threshold.
  [[nodiscard]] Word greater_than(int threshold) const noexcept;

  // Maximum lane count, optionally restricted to lanes set in `lane_mask`.
  [[nodiscard]] int max_lane(Word lane_mask = kAllOnes) const noexcept;

  void reset() noexcept;
  [[nodiscard]] int num_slices() const noexcept {
    return static_cast<int>(slices_.size());
  }

 private:
  std::vector<Word> slices_;  // slices_[i] holds bit i of each lane's count
};

}  // namespace enb::sim
