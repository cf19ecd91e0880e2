// Property tests for the campaign pattern stream: pack_shard_patterns must
// write exactly the bits of the test-local reference stream
// (campaign_pattern_reference.hpp) into a task's word-major block, for
// random and exhaustive streams, every shard size class, block offsets off
// the word grid, input counts on both sides of a word, and budgets that end
// mid-word and mid-block; and the detection table's pattern rows must be
// the reference rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_pattern_reference.hpp"
#include "fault/campaign.hpp"
#include "gen/suite.hpp"

namespace enb::fault {
namespace {

using netlist::Circuit;
using sim::Word;

constexpr std::uint64_t kShardSizes[] = {1, 7, 63, 64, 65, 100, 200, 512};

std::size_t block_words(std::size_t patterns, std::size_t num_inputs) {
  return (patterns + sim::kWordBits - 1) / sim::kWordBits * num_inputs;
}

// Packs every task of `plan` the way a campaign task does (512 /
// shard_patterns consecutive shards, each at its offset in the task's
// block) and compares each block with the reference packing.
void expect_tasks_match_reference(std::size_t num_inputs,
                                  const CampaignOptions& options,
                                  const exec::ShardPlan& plan,
                                  const std::string& where) {
  const std::size_t per_task = sim::kBlockPatterns / plan.shard_size();
  for (std::size_t first = 0; first < plan.num_shards(); first += per_task) {
    std::vector<exec::Shard> shards;
    for (std::size_t s = first;
         s < std::min(plan.num_shards(), first + per_task); ++s) {
      shards.push_back(plan.shard(s));
    }
    const std::size_t task_begin = shards.front().begin;
    std::vector<Word> words(
        block_words(shards.back().end - task_begin, num_inputs), 0);
    for (const exec::Shard& shard : shards) {
      pack_shard_patterns(num_inputs, options, shard, words,
                          shard.begin - task_begin);
    }
    ASSERT_EQ(words, testing::reference_block_words(num_inputs, options,
                                                    shards))
        << where << ", task from shard " << first;
  }
}

TEST(CampaignPatternsProperty, RandomTasksMatchReferenceStream) {
  for (const std::size_t num_inputs : {1u, 5u, 36u, 64u, 65u, 513u}) {
    for (const std::uint64_t shard_size : kShardSizes) {
      // 1100 ends a task mid-block and mid-word for every shard size; 37
      // ends inside the first word; 1536 ends on a block edge for 64 and 512.
      for (const std::uint64_t budget : {37u, 1100u, 1536u}) {
        CampaignOptions options;
        options.patterns = budget;
        options.shard_patterns = shard_size;
        options.seed = 0xC0FFEE + num_inputs;
        const exec::ShardPlan plan(budget, shard_size);
        expect_tasks_match_reference(
            num_inputs, options, plan,
            std::to_string(num_inputs) + " inputs, " +
                std::to_string(shard_size) + " per shard, " +
                std::to_string(budget) + " patterns");
      }
    }
  }
}

TEST(CampaignPatternsProperty, ExhaustiveTasksMatchReferenceStream) {
  // 2, 32 and 1024 patterns: inside one word, and past two blocks (ending
  // mid-block for every shard size but 64 and 512).
  for (const std::size_t num_inputs : {1u, 5u, 10u}) {
    for (const std::uint64_t shard_size : kShardSizes) {
      CampaignOptions options;
      options.exhaustive = true;
      options.shard_patterns = shard_size;
      const exec::ShardPlan plan(std::size_t{1} << num_inputs, shard_size);
      expect_tasks_match_reference(num_inputs, options, plan,
                                   "exhaustive, " +
                                       std::to_string(num_inputs) +
                                       " inputs, " +
                                       std::to_string(shard_size) +
                                       " per shard");
    }
  }
  // The last shard of a 20-input plan sets the high assignment bits.
  CampaignOptions options;
  options.exhaustive = true;
  options.shard_patterns = 100;
  const exec::ShardPlan plan(std::size_t{1} << kMaxExhaustiveCampaignInputs,
                             100);
  const exec::Shard last = plan.shard(plan.num_shards() - 1);
  std::vector<Word> words(block_words(last.size(), 20), 0);
  pack_shard_patterns(20, options, last, words, 0);
  EXPECT_EQ(words, testing::reference_block_words(20, options, {&last, 1}));
  for (const std::size_t num_inputs : {21u, 36u, 64u, 65u, 513u}) {
    std::vector<Word> wide(block_words(last.size(), num_inputs), 0);
    EXPECT_THROW(pack_shard_patterns(num_inputs, options, last, wide, 0),
                 ExhaustiveCapError)
        << num_inputs;
  }
}

// A shard packed at any block offset, including ones off the word grid,
// lands on the reference bits and leaves every other bit of the block as
// it was.
TEST(CampaignPatternsProperty, OffsetShardsWriteOnlyTheirOwnBits) {
  for (const bool exhaustive : {false, true}) {
    for (const std::size_t num_inputs : {1u, 5u, 65u}) {
      if (exhaustive && num_inputs > 20) continue;
      for (const std::uint64_t shard_size : kShardSizes) {
        for (const std::size_t first : {1u, 37u, 63u, 65u, 130u, 449u}) {
          CampaignOptions options;
          options.exhaustive = exhaustive;
          options.seed = 77;
          // Shard 3 of the plan: its stream index and pattern indices are
          // not the block offset.
          const exec::Shard shard{3, 3 * shard_size,
                                  3 * shard_size + shard_size};
          if (exhaustive && shard.end > (std::size_t{1} << num_inputs)) {
            continue;
          }
          const std::size_t size =
              block_words(first + shard_size, num_inputs);
          std::vector<Word> expected(size, sim::kAllOnes);
          for (std::size_t p = first; p < first + shard_size; ++p) {
            for (std::size_t i = 0; i < num_inputs; ++i) {
              expected[(p / sim::kWordBits) * num_inputs + i] &=
                  ~(Word{1} << (p % sim::kWordBits));
            }
          }
          testing::reference_pack(num_inputs, options, shard, expected,
                                  first);
          std::vector<Word> words(size, sim::kAllOnes);
          pack_shard_patterns(num_inputs, options, shard, words, first);
          ASSERT_EQ(words, expected)
              << (exhaustive ? "exhaustive, " : "random, ") << num_inputs
              << " inputs, " << shard_size << " per shard, at " << first;
        }
      }
    }
  }
}

TEST(CampaignPatternsProperty, ShortBlockIsRejected) {
  CampaignOptions options;
  const exec::Shard shard{0, 0, 10};
  std::vector<Word> words(block_words(64, 5), 0);
  EXPECT_NO_THROW(pack_shard_patterns(5, options, shard, words, 54));
  EXPECT_THROW(pack_shard_patterns(5, options, shard, words, 55),
               std::invalid_argument);
}

// The rows of the `.ans` view are the reference rows: three tasks on c432,
// the last ending mid-block and mid-word, and mult4's 256 exhaustive
// patterns in shards of 100 (one partial block).
TEST(CampaignPatternsProperty, DetectionTableRowsMatchReferenceRows) {
  struct Case {
    const char* name;
    CampaignOptions options;
  };
  std::vector<Case> cases(2);
  cases[0].name = "c432";
  cases[0].options.patterns = 1100;
  cases[1].name = "mult4";
  cases[1].options.exhaustive = true;
  cases[1].options.shard_patterns = 100;
  for (const Case& c : cases) {
    const Circuit circuit = gen::find_benchmark(c.name).build();
    DetectionTable table;
    (void)run_campaign(circuit, nullptr, c.options,
                       exec::Parallelism::global_pool(), &table);
    const std::vector<std::vector<bool>> rows =
        testing::reference_campaign_rows(
            circuit.num_inputs(), c.options,
            campaign_shard_plan(circuit, c.options));
    ASSERT_EQ(rows.size(), c.options.exhaustive ? 256u : 1100u) << c.name;
    EXPECT_EQ(table.patterns, rows) << c.name;
  }
}

// shard_pattern_bits, the row view, is the reference stream.
TEST(CampaignPatternsProperty, ShardRowsMatchReferenceRows) {
  for (const bool exhaustive : {false, true}) {
    for (const std::uint64_t shard_size : kShardSizes) {
      CampaignOptions options;
      options.exhaustive = exhaustive;
      const exec::Shard shard{2, 2 * shard_size, 3 * shard_size};
      EXPECT_EQ(shard_pattern_bits(9, options, shard),
                testing::reference_shard_rows(9, options, shard))
          << exhaustive << ' ' << shard_size;
    }
  }
}

}  // namespace
}  // namespace enb::fault
