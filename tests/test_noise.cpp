#include "sim/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/bitpack.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit buffer_chain(int length) {
  Circuit c;
  NodeId prev = c.add_input();
  for (int i = 0; i < length; ++i) prev = c.add_gate(GateType::kBuf, prev);
  c.add_output(prev);
  return c;
}

TEST(NoisySim, ZeroEpsilonIsClean) {
  const Circuit c = buffer_chain(4);
  NoisySim sim(c, 0.0, 1);
  const std::vector<Word> in{0x123456789ABCDEF0ULL};
  sim.eval(in);
  EXPECT_EQ(sim.output_values()[0], in[0]);
  for (Word e : sim.last_error_words()) EXPECT_EQ(e, 0ULL);
}

TEST(NoisySim, SingleGateFlipRate) {
  const Circuit c = buffer_chain(1);
  const double eps = 0.1;
  NoisySim sim(c, eps, 2);
  std::int64_t flips = 0;
  const int passes = 5000;
  const std::vector<Word> in{0};
  for (int i = 0; i < passes; ++i) {
    sim.eval(in);
    flips += popcount(sim.output_values()[0]);
  }
  const double rate = static_cast<double>(flips) / (64.0 * passes);
  const double sigma = std::sqrt(eps * (1 - eps) / (64.0 * passes));
  EXPECT_NEAR(rate, eps, 5 * sigma);
}

TEST(NoisySim, ChainErrorComposition) {
  // k cascaded eps-noisy buffers: output error = (1 - (1-2eps)^k) / 2.
  const int k = 3;
  const double eps = 0.05;
  const Circuit c = buffer_chain(k);
  NoisySim sim(c, eps, 3);
  std::int64_t flips = 0;
  const int passes = 8000;
  const std::vector<Word> in{0};
  for (int i = 0; i < passes; ++i) {
    sim.eval(in);
    flips += popcount(sim.output_values()[0]);
  }
  const double rate = static_cast<double>(flips) / (64.0 * passes);
  const double expected = (1.0 - std::pow(1.0 - 2 * eps, k)) / 2.0;
  const double sigma = std::sqrt(expected * (1 - expected) / (64.0 * passes));
  EXPECT_NEAR(rate, expected, 5 * sigma);
}

TEST(NoisySim, InputsNeverFlip) {
  Circuit c;
  const NodeId a = c.add_input();
  c.add_output(a);
  NoisySim sim(c, 0.5, 4);
  const std::vector<Word> in{0xDEADBEEFDEADBEEFULL};
  sim.eval(in);
  EXPECT_EQ(sim.output_values()[0], in[0]);
}

TEST(NoisySim, ConstantsNeverFlip) {
  Circuit c;
  c.add_input();
  const NodeId k = c.add_const(true);
  c.add_output(k);
  NoisySim sim(c, 0.5, 5);
  const std::vector<Word> in{0};
  sim.eval(in);
  EXPECT_EQ(sim.output_values()[0], kAllOnes);
}

TEST(NoisySim, PerGateEpsilonOverride) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId clean_gate = c.add_gate(GateType::kBuf, a);
  const NodeId noisy_gate = c.add_gate(GateType::kBuf, a);
  c.add_output(clean_gate);
  c.add_output(noisy_gate);
  std::vector<double> eps(c.node_count(), 0.0);
  eps[noisy_gate] = 0.5;
  NoisySim sim(c, std::move(eps), 6);
  const std::vector<Word> in{0};
  std::int64_t clean_flips = 0;
  std::int64_t noisy_flips = 0;
  for (int i = 0; i < 200; ++i) {
    sim.eval(in);
    clean_flips += popcount(sim.output_values()[0]);
    noisy_flips += popcount(sim.output_values()[1]);
  }
  EXPECT_EQ(clean_flips, 0);
  EXPECT_GT(noisy_flips, 4000);  // ~6400 expected at eps=0.5
}

TEST(NoisySim, RejectsBadEpsilon) {
  const Circuit c = buffer_chain(1);
  EXPECT_THROW(NoisySim(c, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(NoisySim(c, 0.6, 1), std::invalid_argument);
  EXPECT_THROW(NoisySim(c, std::vector<double>{0.1}, 1),
               std::invalid_argument);
}

// NaN fails every comparison, so a range check written as "reject when
// below 0 or above 0.5" would let it through; both constructors reject it
// with the range message.
TEST(NoisySim, RejectsNanEpsilon) {
  const Circuit c = buffer_chain(1);
  const double nan = std::nan("");
  for (const std::vector<double>& epsilons :
       {std::vector<double>(c.node_count(), nan),
        std::vector<double>{0.0, nan}}) {
    try {
      NoisySim sim(c, epsilons, 1);
      ADD_FAILURE() << "NaN epsilon accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("epsilon must be in [0, 0.5]"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(NoisySim(c, nan, 1), std::invalid_argument);
}

TEST(NoisySim, FreshNoisePerEval) {
  const Circuit c = buffer_chain(1);
  NoisySim sim(c, 0.5, 7);
  const std::vector<Word> in{0};
  sim.eval(in);
  const Word first = sim.output_values()[0];
  sim.eval(in);
  const Word second = sim.output_values()[0];
  EXPECT_NE(first, second);  // 2^-64 false-failure probability
}

}  // namespace
}  // namespace enb::sim
