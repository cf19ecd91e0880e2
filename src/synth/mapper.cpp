#include "synth/mapper.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/exhaustive.hpp"
#include "synth/decompose.hpp"
#include "synth/strash.hpp"
#include "synth/structural_hasher.hpp"
#include "synth/sweep.hpp"

namespace enb::synth {

using netlist::Circuit;

namespace {

constexpr std::size_t kVerifyExactMaxInputs = 14;
constexpr std::uint64_t kVerifyRandomWords = 512;
constexpr std::uint64_t kVerifySeed = 0x5EED;

[[noreturn]] void throw_not_equivalent(const Circuit& original) {
  throw std::runtime_error("map_to_library: mapped circuit for '" +
                           original.name() +
                           "' is not equivalent to the original");
}

}  // namespace

std::size_t check_mapping(const Circuit& original, const Circuit& mapped) {
  if (original.num_inputs() != mapped.num_inputs() ||
      original.num_outputs() != mapped.num_outputs()) {
    throw_not_equivalent(original);
  }
  StructuralHasher hasher(original.num_inputs());
  const std::vector<std::uint32_t> ids_a = hasher.hash_circuit(original);
  const std::vector<std::uint32_t> ids_b = hasher.hash_circuit(mapped);
  std::size_t proved = 0;
  for (std::size_t o = 0; o < original.num_outputs(); ++o) {
    proved += ids_a[original.outputs()[o]] == ids_b[mapped.outputs()[o]];
  }
  if (proved == original.num_outputs()) return proved;

  const bool ok = original.num_inputs() <= kVerifyExactMaxInputs
                      ? sim::exhaustive_equivalent(original, mapped)
                      : sim::random_equivalent(original, mapped,
                                               kVerifyRandomWords,
                                               kVerifySeed);
  if (!ok) throw_not_equivalent(original);
  return proved;
}

MapResult map_to_library(const Circuit& circuit, int max_fanin) {
  const obs::Span span("map-to-library", {}, circuit.name());
  MapResult result;
  result.before = netlist::compute_stats(circuit);

  Circuit mapped = sweep(circuit);
  mapped = strash(mapped);
  mapped = reduce_fanin(mapped, max_fanin);
  mapped = sweep(mapped);
  mapped = strash(mapped);
  mapped.set_name(circuit.name());

  {
    obs::Span check_span("map-check", span.handle());
    result.outputs_proved = check_mapping(circuit, mapped);
    check_span.set_detail(
        "proved=" + std::to_string(result.outputs_proved) + " open=" +
        std::to_string(circuit.num_outputs() - result.outputs_proved));
  }
  result.verified_exact = circuit.num_inputs() <= kVerifyExactMaxInputs;
  result.after = netlist::compute_stats(mapped);
  result.circuit = std::move(mapped);
  return result;
}

}  // namespace enb::synth
