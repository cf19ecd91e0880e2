#include "netlist/gate_type.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace enb::netlist {
namespace {

TEST(GateType, ArityRanges) {
  EXPECT_EQ(arity_range(GateType::kInput).max, 0);
  EXPECT_EQ(arity_range(GateType::kConst0).max, 0);
  EXPECT_EQ(arity_range(GateType::kBuf).min, 1);
  EXPECT_EQ(arity_range(GateType::kBuf).max, 1);
  EXPECT_EQ(arity_range(GateType::kNot).max, 1);
  EXPECT_EQ(arity_range(GateType::kMaj).min, 3);
  EXPECT_EQ(arity_range(GateType::kMaj).max, 3);
  EXPECT_EQ(arity_range(GateType::kAnd).min, 1);
  EXPECT_GT(arity_range(GateType::kAnd).max, 1000);
}

TEST(GateType, Classification) {
  EXPECT_TRUE(is_input(GateType::kInput));
  EXPECT_FALSE(is_input(GateType::kAnd));
  EXPECT_TRUE(is_constant(GateType::kConst0));
  EXPECT_TRUE(is_constant(GateType::kConst1));
  EXPECT_FALSE(is_constant(GateType::kNot));
  EXPECT_FALSE(counts_as_gate(GateType::kInput));
  EXPECT_FALSE(counts_as_gate(GateType::kConst1));
  EXPECT_TRUE(counts_as_gate(GateType::kBuf));
  EXPECT_TRUE(counts_as_gate(GateType::kNand));
}

TEST(GateType, Commutativity) {
  EXPECT_TRUE(is_commutative(GateType::kAnd));
  EXPECT_TRUE(is_commutative(GateType::kXnor));
  EXPECT_TRUE(is_commutative(GateType::kMaj));
  EXPECT_FALSE(is_commutative(GateType::kBuf));
  EXPECT_FALSE(is_commutative(GateType::kInput));
}

const GateType kAllTypes[] = {
    GateType::kInput, GateType::kConst0, GateType::kConst1, GateType::kBuf,
    GateType::kNot,   GateType::kAnd,    GateType::kNand,   GateType::kOr,
    GateType::kNor,   GateType::kXor,    GateType::kXnor,   GateType::kMaj};

TEST(GateType, NameRoundTrip) {
  for (GateType type : kAllTypes) {
    const auto parsed = gate_type_from_string(to_string(type));
    ASSERT_TRUE(parsed.has_value()) << to_string(type);
    EXPECT_EQ(*parsed, type);
  }
}

TEST(GateType, NameAliases) {
  EXPECT_EQ(gate_type_from_string("BUFF"), GateType::kBuf);
  EXPECT_EQ(gate_type_from_string("buff"), GateType::kBuf);
  EXPECT_EQ(gate_type_from_string("INV"), GateType::kNot);
  EXPECT_EQ(gate_type_from_string("nand"), GateType::kNand);
  EXPECT_EQ(gate_type_from_string("Maj3"), GateType::kMaj);
  EXPECT_EQ(gate_type_from_string("VDD"), GateType::kConst1);
  EXPECT_EQ(gate_type_from_string("GND"), GateType::kConst0);
  EXPECT_FALSE(gate_type_from_string("DFF").has_value());
  EXPECT_FALSE(gate_type_from_string("").has_value());
}

TEST(GateType, EvalWordBasics) {
  const std::uint64_t a = 0b1100;
  const std::uint64_t b = 0b1010;
  using W = std::vector<std::uint64_t>;
  EXPECT_EQ(eval_word(GateType::kAnd, W{a, b}), std::uint64_t{0b1000});
  EXPECT_EQ(eval_word(GateType::kOr, W{a, b}), std::uint64_t{0b1110});
  EXPECT_EQ(eval_word(GateType::kXor, W{a, b}), std::uint64_t{0b0110});
  EXPECT_EQ(eval_word(GateType::kNand, W{a, b}) & 0xF, std::uint64_t{0b0111});
  EXPECT_EQ(eval_word(GateType::kNor, W{a, b}) & 0xF, std::uint64_t{0b0001});
  EXPECT_EQ(eval_word(GateType::kXnor, W{a, b}) & 0xF, std::uint64_t{0b1001});
  EXPECT_EQ(eval_word(GateType::kBuf, W{a}), a);
  EXPECT_EQ(eval_word(GateType::kNot, W{a}) & 0xF, std::uint64_t{0b0011});
  EXPECT_EQ(eval_word(GateType::kConst0, {}), std::uint64_t{0});
  EXPECT_EQ(eval_word(GateType::kConst1, {}), ~std::uint64_t{0});
}

TEST(GateType, EvalWordMajority) {
  const std::uint64_t a = 0b11110000;
  const std::uint64_t b = 0b11001100;
  const std::uint64_t c = 0b10101010;
  EXPECT_EQ(eval_word(GateType::kMaj, std::vector<std::uint64_t>{a, b, c}),
            std::uint64_t{0b11101000});
}

TEST(GateType, EvalWordWideGates) {
  const std::vector<std::uint64_t> inputs = {0xF, 0xF0F, 0xFFF};
  EXPECT_EQ(eval_word(GateType::kAnd, inputs), std::uint64_t{0xF});
  EXPECT_EQ(eval_word(GateType::kOr, inputs), std::uint64_t{0xFFF});
  // Single-operand associative gates are identity (or its negation).
  EXPECT_EQ(eval_word(GateType::kAnd, std::vector<std::uint64_t>{0xAB}),
            std::uint64_t{0xAB});
  EXPECT_EQ(eval_word(GateType::kXnor, std::vector<std::uint64_t>{0}), ~std::uint64_t{0});
}

TEST(GateType, EvalWordArityErrors) {
  EXPECT_THROW((void)eval_word(GateType::kNot, std::vector<std::uint64_t>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)eval_word(GateType::kMaj, std::vector<std::uint64_t>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)eval_word(GateType::kAnd, {}), std::invalid_argument);
  EXPECT_THROW((void)eval_word(GateType::kInput, {}), std::invalid_argument);
}

TEST(GateType, AlgebraInvertsBackToTheType) {
  for (const GateType type : kAllTypes) {
    EXPECT_EQ(gate_type_of(gate_op(type), is_inverted(type)), type)
        << to_string(type);
  }
  EXPECT_THROW((void)gate_type_of(GateOp::kMaj, true), std::invalid_argument);
  EXPECT_THROW((void)gate_type_of(GateOp::kInput, true), std::invalid_argument);
}

TEST(GateType, ControllingValues) {
  EXPECT_FALSE(controlling_value(GateOp::kAnd));
  EXPECT_TRUE(controlling_value(GateOp::kOr));
}

// The operator's value on one input assignment (bit i of `bits` is fanin
// i), before the output inversion.
bool apply_op(GateOp op, std::uint32_t bits, int arity) {
  const int ones = std::popcount(bits);
  switch (op) {
    case GateOp::kConst:
      return false;
    case GateOp::kBuf:
      return bits != 0;
    case GateOp::kAnd:
      return ones == arity;
    case GateOp::kOr:
      return ones > 0;
    case GateOp::kXor:
      return ones % 2 == 1;
    case GateOp::kMaj:
      return 2 * ones > arity;
    case GateOp::kInput:
      break;
  }
  ADD_FAILURE() << "no operator value for an input";
  return false;
}

// eval_gate keeps its own per-type switch for speed; it must agree with
// operator-then-inversion on every type, arity up to 5 and assignment.
TEST(GateType, EvalWordMatchesOperatorThenInversion) {
  for (const GateType type : kAllTypes) {
    if (is_input(type)) continue;
    const auto [min_arity, max_arity] = arity_range(type);
    for (int arity = min_arity; arity <= std::min(max_arity, 5); ++arity) {
      for (std::uint32_t bits = 0; bits < (1u << arity); ++bits) {
        std::vector<std::uint64_t> words;
        for (int i = 0; i < arity; ++i) {
          words.push_back(((bits >> i) & 1) != 0 ? ~std::uint64_t{0} : 0);
        }
        const bool expected = apply_op(gate_op(type), bits, arity) !=
                              is_inverted(type);
        EXPECT_EQ(eval_word(type, words), expected ? ~std::uint64_t{0} : 0)
            << to_string(type) << " arity " << arity << " bits " << bits;
      }
    }
  }
}

}  // namespace
}  // namespace enb::netlist
