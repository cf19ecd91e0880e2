#include "netlist/gate_type.hpp"

#include <algorithm>
#include <cctype>
#include <ranges>
#include <stdexcept>
#include <string>

#include "netlist/flat.hpp"

namespace enb::netlist {
namespace {

// .bench spellings accepted besides the canonical row names.
struct Alias {
  std::string_view name;
  GateType type;
};

constexpr Alias kAliases[] = {
    {"GND", GateType::kConst0}, {"ZERO", GateType::kConst0},
    {"VDD", GateType::kConst1}, {"ONE", GateType::kConst1},
    {"BUFF", GateType::kBuf},   {"INV", GateType::kNot},
    {"MAJ3", GateType::kMaj},
};

}  // namespace

std::optional<GateType> gate_type_from_string(std::string_view name) noexcept {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  for (const GateRow& row : kGateRows) {
    if (row.name == upper) return row.type;
  }
  for (const Alias& alias : kAliases) {
    if (alias.name == upper) return alias.type;
  }
  return std::nullopt;
}

std::uint64_t eval_word(GateType type, std::span<const std::uint64_t> inputs) {
  const auto [min_arity, max_arity] = arity_range(type);
  const int n = static_cast<int>(inputs.size());
  if (n < min_arity || n > max_arity) {
    throw std::invalid_argument("eval_word: bad arity " + std::to_string(n) +
                                " for gate " + std::string(to_string(type)));
  }
  if (type == GateType::kInput) {
    throw std::invalid_argument("eval_word: kInput has no evaluation rule");
  }
  return eval_gate<std::uint64_t>(
      type, inputs, std::views::iota(std::size_t{0}, inputs.size()));
}

}  // namespace enb::netlist
