// Lane-width policy for the fault-parallel simulator.
//
// The bit-parallel engine packs one injected fault per lane. The lane
// container is either a plain 64-bit sim::Word or a GCC vector-extension
// type of 2/4/8 words (`__attribute__((vector_size)))`), giving 128/256/512
// faults per block on machines whose SIMD units can carry them. All four
// widths run the same templated kernel (fault_sim.hpp: one good-machine
// sweep per pattern, then event-driven blocks that re-evaluate only where
// a fault's effect travels), so the choice is a pure execution policy:
// campaign *results* are identical for every width (pass accounting is
// normalized to 64-lane units), which is why `lanes` stays out of
// canonical analysis specs and the serve result cache. A wider block
// evaluates fewer blocks over the union of more fault cones.
//
// The helpers here are the small vocabulary the templated code needs to be
// generic over "Word or vector of Words": per-word access, broadcast, bit
// tests, low-lane masks, and a bit-sliced saturating counter for bundle
// majority decoding (the vector analogue of sim::LaneCounter).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/bitpack.hpp"

namespace enb::fault {

// Runtime-selectable fault lanes per sweep. Values are the lane counts.
enum class LaneWidth : int { k64 = 64, k128 = 128, k256 = 256, k512 = 512 };

[[nodiscard]] constexpr const char* to_string(LaneWidth width) noexcept {
  switch (width) {
    case LaneWidth::k64:
      return "64";
    case LaneWidth::k128:
      return "128";
    case LaneWidth::k256:
      return "256";
    case LaneWidth::k512:
      return "512";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<LaneWidth> parse_lane_width(
    std::uint64_t lanes) noexcept {
  switch (lanes) {
    case 64:
      return LaneWidth::k64;
    case 128:
      return LaneWidth::k128;
    case 256:
      return LaneWidth::k256;
    case 512:
      return LaneWidth::k512;
    default:
      return std::nullopt;
  }
}

[[nodiscard]] constexpr std::array<LaneWidth, 4> all_lane_widths() noexcept {
  return {LaneWidth::k64, LaneWidth::k128, LaneWidth::k256, LaneWidth::k512};
}

// Vector-of-words lane containers. Explicit typedefs (not a width-dependent
// template) because GCC requires vector_size on a concrete type.
typedef sim::Word LaneVec128 __attribute__((vector_size(16)));
typedef sim::Word LaneVec256 __attribute__((vector_size(32)));
typedef sim::Word LaneVec512 __attribute__((vector_size(64)));

template <typename V>
inline constexpr int kLaneWords = static_cast<int>(sizeof(V) / sizeof(sim::Word));
template <typename V>
inline constexpr int kLaneBits = kLaneWords<V> * sim::kWordBits;

// Per-word accessors. Builtin vector types live in no namespace, so these
// are plain overloads declared before any template that uses them.
[[nodiscard]] inline sim::Word lane_word(const sim::Word& v, int) noexcept {
  return v;
}
[[nodiscard]] inline sim::Word lane_word(const LaneVec128& v, int i) noexcept {
  return v[i];
}
[[nodiscard]] inline sim::Word lane_word(const LaneVec256& v, int i) noexcept {
  return v[i];
}
[[nodiscard]] inline sim::Word lane_word(const LaneVec512& v, int i) noexcept {
  return v[i];
}
inline void set_lane_word(sim::Word& v, int, sim::Word w) noexcept { v = w; }
inline void set_lane_word(LaneVec128& v, int i, sim::Word w) noexcept {
  v[i] = w;
}
inline void set_lane_word(LaneVec256& v, int i, sim::Word w) noexcept {
  v[i] = w;
}
inline void set_lane_word(LaneVec512& v, int i, sim::Word w) noexcept {
  v[i] = w;
}

// All lanes equal to `bit`. V{} zero-initializes both Word and vectors.
template <typename V>
[[nodiscard]] V lane_broadcast(bool bit) noexcept {
  return bit ? ~V{} : V{};
}

template <typename V>
[[nodiscard]] bool lane_any(const V& v) noexcept {
  for (int w = 0; w < kLaneWords<V>; ++w) {
    if (lane_word(v, w) != 0) return true;
  }
  return false;
}

template <typename V>
[[nodiscard]] bool lane_bit(const V& v, int lane) noexcept {
  return ((lane_word(v, lane / sim::kWordBits) >>
           (lane % sim::kWordBits)) & 1) != 0;
}

template <typename V>
inline void lane_set_bit(V& v, int lane) noexcept {
  const int w = lane / sim::kWordBits;
  set_lane_word(v, w,
                lane_word(v, w) | (sim::Word{1} << (lane % sim::kWordBits)));
}

// Mask with the low `n` lanes set (n in [0, kLaneBits<V>]).
template <typename V>
[[nodiscard]] V lane_low_mask(int n) noexcept {
  V v = V{};
  for (int w = 0; w < kLaneWords<V>; ++w) {
    const int bits =
        std::min(sim::kWordBits, std::max(0, n - w * sim::kWordBits));
    set_lane_word(v, w, sim::low_mask(bits));
  }
  return v;
}

// Bit-sliced saturating lane counter over any lane container — the vector
// generalization of sim::LaneCounter, used for per-lane bundle-majority
// decoding. Pure bitwise ops, so one definition covers Word and every
// vector width with identical per-lane arithmetic.
template <typename V>
class VecLaneCounter {
 public:
  explicit VecLaneCounter(int max_count) {
    if (max_count < 1) {
      throw std::invalid_argument("VecLaneCounter: max_count must be >= 1");
    }
    int bits = 1;
    while (((1 << bits) - 1) < max_count) ++bits;
    slices_.assign(static_cast<std::size_t>(bits), V{});
  }

  void reset() noexcept {
    for (V& slice : slices_) slice = V{};
  }

  // Adds 1 to every lane whose bit is set in `indicator` (ripple carry).
  void add(const V& indicator) noexcept {
    V carry = indicator;
    for (V& slice : slices_) {
      const V sum = slice ^ carry;
      carry = slice & carry;
      slice = sum;
      if (!lane_any(carry)) break;
    }
  }

  // Per-lane (count > threshold), MSB-first bit-sliced compare.
  [[nodiscard]] V greater_than(int threshold) const noexcept {
    V gt = V{};
    V eq = ~V{};
    for (std::size_t i = slices_.size(); i-- > 0;) {
      const V t = lane_broadcast<V>(((threshold >> i) & 1) != 0);
      gt |= eq & slices_[i] & ~t;
      eq &= ~(slices_[i] ^ t);
    }
    return gt;
  }

 private:
  std::vector<V> slices_;
};

}  // namespace enb::fault
