#include "sim/bitpack.hpp"

#include <gtest/gtest.h>

namespace enb::sim {
namespace {

TEST(Bitpack, LowMask) {
  EXPECT_EQ(low_mask(0), 0ULL);
  EXPECT_EQ(low_mask(1), 1ULL);
  EXPECT_EQ(low_mask(8), 0xFFULL);
  EXPECT_EQ(low_mask(63), ~0ULL >> 1);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(LaneCounter, CountsPerLane) {
  LaneCounter counter(10);
  counter.add(0b1011);
  counter.add(0b0011);
  counter.add(0b0001);
  EXPECT_EQ(counter.lane(0), 3);
  EXPECT_EQ(counter.lane(1), 2);
  EXPECT_EQ(counter.lane(2), 0);
  EXPECT_EQ(counter.lane(3), 1);
  EXPECT_EQ(counter.lane(63), 0);
}

TEST(LaneCounter, SlicesSizedForMaxCount) {
  EXPECT_EQ(LaneCounter(1).num_slices(), 1);
  EXPECT_EQ(LaneCounter(3).num_slices(), 2);
  EXPECT_EQ(LaneCounter(4).num_slices(), 3);
  EXPECT_EQ(LaneCounter(7).num_slices(), 3);
  EXPECT_EQ(LaneCounter(8).num_slices(), 4);
  EXPECT_THROW(LaneCounter(0), std::invalid_argument);
}

TEST(LaneCounter, SaturatedAllLanes) {
  LaneCounter counter(5);
  for (int i = 0; i < 5; ++i) counter.add(kAllOnes);
  for (int l = 0; l < kWordBits; ++l) EXPECT_EQ(counter.lane(l), 5);
  EXPECT_EQ(counter.max_lane(), 5);
}

TEST(LaneCounter, GreaterThanThreshold) {
  LaneCounter counter(7);
  // lane0: 3 adds, lane1: 2, lane2: 1, lane3: 0
  counter.add(0b0111);
  counter.add(0b0011);
  counter.add(0b0001);
  EXPECT_EQ(counter.greater_than(0) & 0xF, 0b0111ULL);
  EXPECT_EQ(counter.greater_than(1) & 0xF, 0b0011ULL);
  EXPECT_EQ(counter.greater_than(2) & 0xF, 0b0001ULL);
  EXPECT_EQ(counter.greater_than(3) & 0xF, 0b0000ULL);
}

TEST(LaneCounter, GreaterThanMajorityUseCase) {
  // Majority decode of a 5-wire bundle: count > 2.
  LaneCounter counter(5);
  counter.add(0b11);
  counter.add(0b11);
  counter.add(0b10);
  counter.add(0b00);
  counter.add(0b00);
  const Word majority = counter.greater_than(2);
  EXPECT_EQ(majority & 0b01, 0ULL);  // lane0: 2 of 5
  EXPECT_EQ(majority & 0b10, 0b10ULL);  // lane1: 3 of 5
}

TEST(LaneCounter, MaxLaneWithMask) {
  LaneCounter counter(4);
  counter.add(0b0001);
  counter.add(0b0101);
  EXPECT_EQ(counter.max_lane(), 2);
  EXPECT_EQ(counter.max_lane(0b0100), 1);
  EXPECT_EQ(counter.max_lane(0b1000), 0);
}

TEST(LaneCounter, ResetClears) {
  LaneCounter counter(3);
  counter.add(kAllOnes);
  counter.reset();
  EXPECT_EQ(counter.max_lane(), 0);
}

TEST(Block, MaskTestAndFindFirstAcrossWords) {
  using B = Block<4>;
  const B mask = B::low_mask(130);
  EXPECT_EQ(mask.words, (std::array<Word, 4>{~0ULL, ~0ULL, 0b11ULL, 0}));
  EXPECT_FALSE(B::low_mask(0).any());
  EXPECT_EQ(B::low_mask(B::kBits), ~B{});
  EXPECT_TRUE(mask.test(129));
  EXPECT_FALSE(mask.test(130));
  B bits;
  bits.words[1] = Word{1} << 5;
  bits.words[3] = Word{1} << 63;
  EXPECT_EQ(bits.find_first(0), 69);
  EXPECT_EQ(bits.find_first(69), 69);
  EXPECT_EQ(bits.find_first(70), 255);
  EXPECT_EQ(bits.find_first(255), 255);
  EXPECT_EQ((bits & mask).find_first(70), B::kBits);
  EXPECT_EQ(words_for(1), 1);
  EXPECT_EQ(words_for(64), 1);
  EXPECT_EQ(words_for(65), 2);
  EXPECT_EQ(words_for(kBlockPatterns), kBlockWords);
}

}  // namespace
}  // namespace enb::sim
