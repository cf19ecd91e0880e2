#include "netlist/gate_type.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <string>

#include "netlist/flat.hpp"

namespace enb::netlist {
namespace {

constexpr int kUnbounded = std::numeric_limits<int>::max();

std::string to_upper(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

}  // namespace

ArityRange arity_range(GateType type) noexcept {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return {0, 0};
    case GateType::kBuf:
    case GateType::kNot:
      return {1, 1};
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
      return {1, kUnbounded};
    case GateType::kMaj:
      return {3, 3};
  }
  return {0, 0};
}

std::string_view to_string(GateType type) noexcept {
  switch (type) {
    case GateType::kInput:
      return "INPUT";
    case GateType::kConst0:
      return "CONST0";
    case GateType::kConst1:
      return "CONST1";
    case GateType::kBuf:
      return "BUF";
    case GateType::kNot:
      return "NOT";
    case GateType::kAnd:
      return "AND";
    case GateType::kNand:
      return "NAND";
    case GateType::kOr:
      return "OR";
    case GateType::kNor:
      return "NOR";
    case GateType::kXor:
      return "XOR";
    case GateType::kXnor:
      return "XNOR";
    case GateType::kMaj:
      return "MAJ";
  }
  return "?";
}

std::optional<GateType> gate_type_from_string(std::string_view name) noexcept {
  const std::string upper = to_upper(name);
  if (upper == "INPUT") return GateType::kInput;
  if (upper == "CONST0" || upper == "GND" || upper == "ZERO") return GateType::kConst0;
  if (upper == "CONST1" || upper == "VDD" || upper == "ONE") return GateType::kConst1;
  if (upper == "BUF" || upper == "BUFF") return GateType::kBuf;
  if (upper == "NOT" || upper == "INV") return GateType::kNot;
  if (upper == "AND") return GateType::kAnd;
  if (upper == "NAND") return GateType::kNand;
  if (upper == "OR") return GateType::kOr;
  if (upper == "NOR") return GateType::kNor;
  if (upper == "XOR") return GateType::kXor;
  if (upper == "XNOR") return GateType::kXnor;
  if (upper == "MAJ" || upper == "MAJ3") return GateType::kMaj;
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

bool eval_bit(GateType type, const std::vector<bool>& inputs) {
  std::array<std::uint64_t, 16> words{};
  if (inputs.size() > words.size()) {
    throw std::invalid_argument("eval_bit: more than 16 fanins unsupported");
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? ~std::uint64_t{0} : 0;
  }
  return (eval_word(type, std::span<const std::uint64_t>(words.data(),
                                                         inputs.size())) &
          1U) != 0;
}

}  // namespace enb::netlist
