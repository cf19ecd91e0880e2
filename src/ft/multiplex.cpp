#include "ft/multiplex.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "ft/voter.hpp"
#include "sim/bitpack.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"

namespace enb::ft {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

namespace {

std::vector<std::size_t> random_permutation(std::size_t n,
                                            sim::Xoshiro256& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

}  // namespace

MultiplexedCircuit multiplex_transform(const Circuit& circuit,
                                       const MultiplexOptions& options) {
  const int n = options.bundle_width;
  if (n < 3 || n % 2 == 0) {
    throw std::invalid_argument(
        "multiplex_transform: bundle_width must be odd and >= 3");
  }
  if (options.restorative_stages < 0) {
    throw std::invalid_argument(
        "multiplex_transform: restorative_stages must be >= 0");
  }
  sim::Xoshiro256 rng(options.seed);

  MultiplexedCircuit result;
  result.bundle_width = n;
  Circuit& out = result.circuit;
  out.set_name(circuit.name() + "_mux" + std::to_string(n));

  // bundle[id] = wires of the multiplexed version of original node id.
  std::vector<std::vector<NodeId>> bundle(circuit.node_count());

  // Each original primary input becomes N input wires (the environment is
  // assumed to supply N copies — inputs are error-free in the paper's model).
  for (NodeId id : circuit.inputs()) {
    std::vector<NodeId> wires;
    wires.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      wires.push_back(
          out.add_input(circuit.node_name(id) + "_w" + std::to_string(w)));
    }
    bundle[id] = std::move(wires);
  }
  result.replica_begin = static_cast<NodeId>(out.node_count());

  const auto restore = [&](std::vector<NodeId> wires) {
    for (int stage = 0; stage < options.restorative_stages; ++stage) {
      // Three independent shuffles; wire i of the new bundle votes over the
      // i-th element of each shuffle. Distinctness per-triple is not
      // guaranteed (von Neumann's construction doesn't need it).
      const auto p1 = random_permutation(wires.size(), rng);
      const auto p2 = random_permutation(wires.size(), rng);
      const auto p3 = random_permutation(wires.size(), rng);
      std::vector<NodeId> next;
      next.reserve(wires.size());
      for (std::size_t i = 0; i < wires.size(); ++i) {
        next.push_back(append_maj3(out, wires[p1[i]], wires[p2[i]],
                                   wires[p3[i]], VoterStyle::kTwoInput));
      }
      wires = std::move(next);
    }
    return wires;
  };

  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    if (type == GateType::kInput) continue;
    if (netlist::is_constant(type)) {
      std::vector<NodeId> wires;
      for (int w = 0; w < n; ++w) {
        wires.push_back(out.add_const(type == GateType::kConst1));
      }
      bundle[id] = std::move(wires);
      continue;
    }
    if (fanins.size() > 2) {
      throw std::invalid_argument(
          "multiplex_transform: gate " + circuit.node_name(id) + " has " +
          std::to_string(fanins.size()) +
          " fanins; map to a 2-input basis first");
    }
    // Executive stage: N copies of the gate over permuted input bundles.
    std::vector<NodeId> wires;
    wires.reserve(static_cast<std::size_t>(n));
    if (fanins.size() == 1) {
      const auto& src = bundle[fanins[0]];
      const auto perm = random_permutation(src.size(), rng);
      for (int w = 0; w < n; ++w) {
        wires.push_back(out.add_gate(type, src[perm[static_cast<std::size_t>(w)]]));
      }
    } else {
      const auto& src_a = bundle[fanins[0]];
      const auto& src_b = bundle[fanins[1]];
      const auto pa = random_permutation(src_a.size(), rng);
      const auto pb = random_permutation(src_b.size(), rng);
      for (int w = 0; w < n; ++w) {
        wires.push_back(out.add_gate(type,
                                     src_a[pa[static_cast<std::size_t>(w)]],
                                     src_b[pb[static_cast<std::size_t>(w)]]));
      }
    }
    bundle[id] = restore(std::move(wires));
  }
  result.replica_end = static_cast<NodeId>(out.node_count());

  result.output_bundles.reserve(circuit.num_outputs());
  for (std::size_t pos = 0; pos < circuit.num_outputs(); ++pos) {
    const auto& wires = bundle[circuit.outputs()[pos]];
    result.output_bundles.push_back(wires);
    for (int w = 0; w < n; ++w) {
      out.add_output(wires[static_cast<std::size_t>(w)],
                     circuit.output_name(pos) + "_w" + std::to_string(w));
    }
  }
  return result;
}

sim::ReliabilityResult estimate_multiplexed_reliability(
    const MultiplexedCircuit& mc, const Circuit& golden, double epsilon,
    const sim::ReliabilityOptions& options) {
  if (mc.circuit.num_inputs() !=
      golden.num_inputs() * static_cast<std::size_t>(mc.bundle_width)) {
    throw std::invalid_argument(
        "estimate_multiplexed_reliability: input bundle mismatch");
  }
  if (mc.output_bundles.size() != golden.num_outputs()) {
    throw std::invalid_argument(
        "estimate_multiplexed_reliability: output bundle mismatch");
  }
  if (options.trials == 0) {
    throw std::invalid_argument(
        "estimate_multiplexed_reliability: trials must be > 0");
  }
  const std::uint64_t passes =
      (options.trials + sim::kWordBits - 1) / sim::kWordBits;

  sim::Xoshiro256 rng(options.seed);
  sim::NoisySim noisy(mc.circuit, epsilon, rng.next());
  sim::LogicSim clean(golden);
  std::vector<sim::Word> golden_inputs(golden.num_inputs());
  std::vector<sim::Word> mux_inputs(mc.circuit.num_inputs());
  sim::LaneCounter counter(mc.bundle_width);

  std::uint64_t failures = 0;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < golden_inputs.size(); ++i) {
      const sim::Word w = sim::input_word(rng, options.input_one_probability);
      golden_inputs[i] = w;
      // All wires of an input bundle carry the same (error-free) value.
      for (int b = 0; b < mc.bundle_width; ++b) {
        mux_inputs[i * static_cast<std::size_t>(mc.bundle_width) +
                   static_cast<std::size_t>(b)] = w;
      }
    }
    noisy.eval(mux_inputs);
    clean.eval(golden_inputs);

    sim::Word wrong = 0;
    for (std::size_t pos = 0; pos < mc.output_bundles.size(); ++pos) {
      counter.reset();
      for (NodeId wire : mc.output_bundles[pos]) {
        counter.add(noisy.value(wire));
      }
      const sim::Word decoded = counter.greater_than(mc.bundle_width / 2);
      wrong |= decoded ^ clean.value(golden.outputs()[pos]);
    }
    failures += static_cast<std::uint64_t>(sim::popcount(wrong));
  }
  return sim::wilson_interval(failures, passes * sim::kWordBits);
}

}  // namespace enb::ft
