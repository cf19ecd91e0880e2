#include "synth/mapper.hpp"

#include <stdexcept>
#include <string>

#include "sim/exhaustive.hpp"
#include "synth/decompose.hpp"
#include "synth/strash.hpp"
#include "synth/sweep.hpp"

namespace enb::synth {

using netlist::Circuit;

namespace {

constexpr std::size_t kVerifyExactMaxInputs = 14;
constexpr std::uint64_t kVerifyRandomWords = 512;
constexpr std::uint64_t kVerifySeed = 0x5EED;

}  // namespace

MapResult map_to_library(const Circuit& circuit, int max_fanin) {
  MapResult result;
  result.before = netlist::compute_stats(circuit);

  Circuit mapped = sweep(circuit);
  mapped = strash(mapped);
  mapped = reduce_fanin(mapped, max_fanin);
  mapped = sweep(mapped);
  mapped = strash(mapped);
  mapped.set_name(circuit.name());

  const bool exact = circuit.num_inputs() <= kVerifyExactMaxInputs;
  const bool ok = exact ? sim::exhaustive_equivalent(circuit, mapped)
                        : sim::random_equivalent(circuit, mapped,
                                                 kVerifyRandomWords,
                                                 kVerifySeed);
  if (!ok) {
    throw std::runtime_error("map_to_library: mapped circuit for '" +
                             circuit.name() +
                             "' is not equivalent to the original");
  }
  result.verified_exact = exact;
  result.after = netlist::compute_stats(mapped);
  result.circuit = std::move(mapped);
  return result;
}

}  // namespace enb::synth
