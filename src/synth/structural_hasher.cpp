#include "synth/structural_hasher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace enb::synth {

using netlist::Circuit;
using netlist::GateOp;
using netlist::GateType;
using netlist::NodeId;

namespace {
constexpr std::uint32_t kNoNot = ~std::uint32_t{0};
}  // namespace

std::size_t StructuralHasher::KeyHash::operator()(
    const Key& key) const noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ key.op;
  for (const std::uint32_t a : key.args) {
    h ^= a + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

StructuralHasher::StructuralHasher(std::size_t num_inputs)
    : num_inputs_(num_inputs),
      next_id_(static_cast<std::uint32_t>(2 + num_inputs)) {
  not_arg_.assign(next_id_, kNoNot);
}

std::uint32_t StructuralHasher::input_id(std::size_t position) const {
  if (position >= num_inputs_) {
    throw std::invalid_argument("StructuralHasher: input position " +
                                std::to_string(position) + " out of range");
  }
  return static_cast<std::uint32_t>(2 + position);
}

std::uint32_t StructuralHasher::intern(GateType op,
                                       std::vector<std::uint32_t> args) {
  Key key{static_cast<std::uint8_t>(op), std::move(args)};
  const auto it = classes_.find(key);
  if (it != classes_.end()) return it->second;
  const std::uint32_t id = next_id_++;
  classes_.emplace(std::move(key), id);
  not_arg_.push_back(kNoNot);
  return id;
}

bool StructuralHasher::complements(std::uint32_t a, std::uint32_t b) const {
  return (a < not_arg_.size() && not_arg_[a] == b) ||
         (b < not_arg_.size() && not_arg_[b] == a);
}

std::uint32_t StructuralHasher::make_not(std::uint32_t arg) {
  if (arg == const_id(false)) return const_id(true);
  if (arg == const_id(true)) return const_id(false);
  if (not_arg_[arg] != kNoNot) return not_arg_[arg];  // NOT(NOT(x)) = x
  const auto it = not_cache_.find(arg);
  if (it != not_cache_.end()) return it->second;
  const std::uint32_t id = intern(GateType::kNot, {arg});
  not_arg_[id] = arg;
  not_cache_.emplace(arg, id);
  return id;
}

std::uint32_t StructuralHasher::make_and_or(GateType op,
                                            std::vector<std::uint32_t> args) {
  const std::uint32_t identity = const_id(op == GateType::kAnd);
  const std::uint32_t dominator = const_id(op != GateType::kAnd);
  std::vector<std::uint32_t> kept;
  kept.reserve(args.size());
  for (const std::uint32_t a : args) {
    if (a == dominator) return dominator;
    if (a != identity) kept.push_back(a);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  for (std::size_t i = 0; i + 1 < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      if (complements(kept[i], kept[j])) return dominator;  // x op !x
    }
  }
  if (kept.empty()) return identity;
  if (kept.size() == 1) return kept[0];
  return intern(op, std::move(kept));
}

std::uint32_t StructuralHasher::make_xor(std::vector<std::uint32_t> args) {
  bool parity = false;
  std::vector<std::uint32_t> kept;
  kept.reserve(args.size());
  for (const std::uint32_t a : args) {
    if (a == const_id(true)) {
      parity = !parity;
    } else if (a == const_id(false)) {
      // identity
    } else if (not_arg_[a] != kNoNot) {
      // XOR(x, NOT(y)) = NOT(XOR(x, y)): hoist the negation into the parity
      // bit so complementary operands cancel like equal ones do.
      parity = !parity;
      kept.push_back(not_arg_[a]);
    } else {
      kept.push_back(a);
    }
  }
  std::sort(kept.begin(), kept.end());
  // XOR(x, x) cancels; after sorting, equal operands are adjacent.
  std::vector<std::uint32_t> reduced;
  for (std::size_t i = 0; i < kept.size();) {
    if (i + 1 < kept.size() && kept[i] == kept[i + 1]) {
      i += 2;
    } else {
      reduced.push_back(kept[i]);
      ++i;
    }
  }
  std::uint32_t id;
  if (reduced.empty()) {
    id = const_id(false);
  } else if (reduced.size() == 1) {
    id = reduced[0];
  } else {
    id = intern(GateType::kXor, std::move(reduced));
  }
  return parity ? make_not(id) : id;
}

std::uint32_t StructuralHasher::make_maj(std::uint32_t a, std::uint32_t b,
                                         std::uint32_t c) {
  // Fold constants into the 2-input reduction MAJ(1,b,c)=b|c, MAJ(0,b,c)=b&c.
  const auto fold = [&](std::uint32_t k, std::uint32_t x,
                        std::uint32_t y) -> std::uint32_t {
    return make_and_or(k == const_id(true) ? GateType::kOr : GateType::kAnd,
                       {x, y});
  };
  if (a <= const_id(true)) return fold(a, b, c);
  if (b <= const_id(true)) return fold(b, a, c);
  if (c <= const_id(true)) return fold(c, a, b);
  // A duplicated operand wins the vote; a complementary pair cancels.
  if (a == b || a == c) return a;
  if (b == c) return b;
  if (complements(a, b)) return c;
  if (complements(a, c)) return b;
  if (complements(b, c)) return a;
  std::vector<std::uint32_t> args{a, b, c};
  std::sort(args.begin(), args.end());
  return intern(GateType::kMaj, std::move(args));
}

std::vector<std::uint32_t> StructuralHasher::hash_circuit(
    const Circuit& circuit, const std::vector<LogicValue>* constants) {
  if (circuit.num_inputs() > num_inputs_) {
    throw std::invalid_argument(
        "StructuralHasher: circuit has " +
        std::to_string(circuit.num_inputs()) + " inputs, hasher sized for " +
        std::to_string(num_inputs_));
  }
  std::vector<std::uint32_t> ids(circuit.node_count());
  std::vector<std::uint32_t> args;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (constants != nullptr && (*constants)[id] != LogicValue::kUnknown) {
      ids[id] = const_id((*constants)[id] == LogicValue::kOne);
      continue;
    }
    const GateType type = circuit.type(id);
    args.clear();
    for (const NodeId f : circuit.fanins(id)) args.push_back(ids[f]);
    const GateOp op = netlist::gate_op(type);
    std::uint32_t value = 0;
    switch (op) {
      case GateOp::kInput:
        value = input_id(static_cast<std::size_t>(circuit.input_index(id)));
        break;
      case GateOp::kConst:
        value = const_id(false);
        break;
      case GateOp::kBuf:
        value = args[0];
        break;
      case GateOp::kAnd:
      case GateOp::kOr:
        value = make_and_or(netlist::gate_type_of(op, false),
                            {args.begin(), args.end()});
        break;
      case GateOp::kXor:
        value = make_xor({args.begin(), args.end()});
        break;
      case GateOp::kMaj:
        value = make_maj(args[0], args[1], args[2]);
        break;
    }
    ids[id] = netlist::is_inverted(type) ? make_not(value) : value;
  }
  return ids;
}

}  // namespace enb::synth
