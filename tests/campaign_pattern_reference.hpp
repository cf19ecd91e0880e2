// Test-local reference for the campaign pattern stream, kept independent of
// src/fault/campaign.cpp so tests that re-derive a campaign's patterns never
// compare the library's packer with itself.
//
// reference_shard_rows draws the stream row by row: one row per pattern,
// the assignment bits of the pattern index when exhaustive, else one
// `next() >> 63` draw per (pattern, input), pattern-major, from the
// counter-based stream of (seed, shard.index). reference_block_words packs
// those rows bit by bit into a task's word-major block (pattern p in bit
// p % 64 of word p / 64 of each logical input).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/stream.hpp"
#include "fault/campaign.hpp"
#include "sim/bitpack.hpp"
#include "sim/prng.hpp"

namespace enb::fault::testing {

inline std::vector<std::vector<bool>> reference_shard_rows(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    const exec::Shard& shard) {
  std::vector<std::vector<bool>> rows(shard.size());
  if (options.exhaustive) {
    for (std::size_t i = 0; i < shard.size(); ++i) {
      const std::uint64_t assignment = shard.begin + i;
      rows[i].resize(num_logical_inputs);
      for (std::size_t bit = 0; bit < num_logical_inputs; ++bit) {
        rows[i][bit] = ((assignment >> bit) & 1) != 0;
      }
    }
    return rows;
  }
  sim::Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  for (std::size_t i = 0; i < shard.size(); ++i) {
    rows[i].resize(num_logical_inputs);
    for (std::size_t bit = 0; bit < num_logical_inputs; ++bit) {
      rows[i][bit] = (rng.next() >> 63) != 0;
    }
  }
  return rows;
}

// `shard`'s rows ORed into `words` (a word-major block of
// `num_logical_inputs` words per 64 patterns) from block pattern `first` on.
inline void reference_pack(std::size_t num_logical_inputs,
                           const CampaignOptions& options,
                           const exec::Shard& shard, std::vector<sim::Word>& words,
                           std::size_t first) {
  std::size_t p = first;
  for (const std::vector<bool>& pattern :
       reference_shard_rows(num_logical_inputs, options, shard)) {
    sim::Word* word = words.data() + (p / sim::kWordBits) * num_logical_inputs;
    for (std::size_t b = 0; b < pattern.size(); ++b) {
      if (pattern[b]) word[b] |= sim::Word{1} << (p % sim::kWordBits);
    }
    ++p;
  }
}

// The block of consecutive `shards`, the first at block pattern 0.
inline std::vector<sim::Word> reference_block_words(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    std::span<const exec::Shard> shards) {
  const auto count =
      static_cast<int>(shards.back().end - shards.front().begin);
  std::vector<sim::Word> words(
      static_cast<std::size_t>(sim::words_for(count)) * num_logical_inputs, 0);
  for (const exec::Shard& shard : shards) {
    reference_pack(num_logical_inputs, options, shard, words,
                   shard.begin - shards.front().begin);
  }
  return words;
}

// Every pattern of `plan`, in global pattern-index order.
inline std::vector<std::vector<bool>> reference_campaign_rows(
    std::size_t num_logical_inputs, const CampaignOptions& options,
    const exec::ShardPlan& plan) {
  std::vector<std::vector<bool>> rows;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (std::vector<bool>& row :
         reference_shard_rows(num_logical_inputs, options, plan.shard(s))) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace enb::fault::testing
