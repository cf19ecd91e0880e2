#include "synth/sweep.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "netlist/transform.hpp"

namespace enb::synth {

using netlist::Circuit;
using netlist::GateOp;
using netlist::GateType;
using netlist::NodeId;

namespace {

// Helpers that inspect nodes already emitted into the new circuit.
std::optional<bool> const_value(const Circuit& c, NodeId id) {
  const GateType type = c.type(id);
  if (type == GateType::kConst0) return false;
  if (type == GateType::kConst1) return true;
  return std::nullopt;
}

NodeId emit_const(Circuit& c, bool value) { return c.add_const(value); }

NodeId emit_not(Circuit& c, NodeId x) {
  // NOT(NOT(y)) collapses to y.
  if (c.type(x) == GateType::kNot) return c.fanins(x)[0];
  if (const auto k = const_value(c, x)) return emit_const(c, !*k);
  return c.add_gate(GateType::kNot, x);
}

// Simplifies an AND/OR operand list in the new circuit. `identity` is the
// neutral constant (1 for AND, 0 for OR); its complement dominates.
struct ReducedOperands {
  std::vector<NodeId> operands;  // deduplicated, constants removed
  bool dominated = false;        // a dominating constant was seen
};

ReducedOperands reduce_and_or(const Circuit& c, std::vector<NodeId> fanins,
                              bool identity) {
  ReducedOperands out;
  std::sort(fanins.begin(), fanins.end());
  fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
  for (NodeId f : fanins) {
    if (const auto k = const_value(c, f)) {
      if (*k != identity) out.dominated = true;
      continue;  // neutral constants drop
    }
    out.operands.push_back(f);
  }
  return out;
}

// Simplifies an XOR operand list: constants fold into `invert`, duplicate
// operands cancel in pairs.
struct XorReduced {
  std::vector<NodeId> operands;
  bool invert = false;
};

XorReduced reduce_xor(const Circuit& c, std::vector<NodeId> fanins) {
  XorReduced out;
  std::sort(fanins.begin(), fanins.end());
  std::size_t i = 0;
  while (i < fanins.size()) {
    std::size_t j = i;
    while (j < fanins.size() && fanins[j] == fanins[i]) ++j;
    const std::size_t count = j - i;
    if (const auto k = const_value(c, fanins[i])) {
      if (*k && count % 2 == 1) out.invert = !out.invert;
    } else if (count % 2 == 1) {
      out.operands.push_back(fanins[i]);
    }
    i = j;
  }
  return out;
}

class SweepPass {
 public:
  explicit SweepPass(const Circuit& circuit) : old_(circuit) {}

  Circuit run() {
    Circuit next(old_.name());
    map_.assign(old_.node_count(), netlist::kInvalidNode);
    for (NodeId id = 0; id < old_.node_count(); ++id) {
      map_[id] = rewrite(next, id);
    }
    for (std::size_t pos = 0; pos < old_.num_outputs(); ++pos) {
      next.add_output(map_[old_.outputs()[pos]], old_.output_name(pos));
    }
    return remove_dead_nodes(next);
  }

 private:
  NodeId rewrite(Circuit& next, NodeId id) {
    const auto type = old_.type(id);
    std::vector<NodeId> fanins;
    fanins.reserve(old_.fanins(id).size());
    for (NodeId f : old_.fanins(id)) fanins.push_back(map_[f]);

    const GateOp op = netlist::gate_op(type);
    const bool negated = netlist::is_inverted(type);
    switch (op) {
      case GateOp::kInput:
        return next.add_input(old_.node_name(id));
      case GateOp::kConst:
        return emit_const(next, negated);
      case GateOp::kBuf:
        return negated ? emit_not(next, fanins[0]) : fanins[0];
      case GateOp::kAnd:
      case GateOp::kOr: {
        const bool control = netlist::controlling_value(op);
        const ReducedOperands r =
            reduce_and_or(next, std::move(fanins), /*identity=*/!control);
        if (r.dominated) return emit_const(next, control != negated);
        if (r.operands.empty()) return emit_const(next, control == negated);
        if (r.operands.size() == 1) {
          return negated ? emit_not(next, r.operands[0]) : r.operands[0];
        }
        return next.add_gate(type, r.operands);
      }
      case GateOp::kXor: {
        XorReduced r = reduce_xor(next, std::move(fanins));
        if (negated) r.invert = !r.invert;
        if (r.operands.empty()) return emit_const(next, r.invert);
        if (r.operands.size() == 1) {
          return r.invert ? emit_not(next, r.operands[0]) : r.operands[0];
        }
        return next.add_gate(netlist::gate_type_of(GateOp::kXor, r.invert),
                             r.operands);
      }
      case GateOp::kMaj:
        return rewrite_maj(next, fanins);
    }
    return netlist::kInvalidNode;  // unreachable
  }

  NodeId rewrite_maj(Circuit& next, const std::vector<NodeId>& f) {
    // Equal pair dominates: MAJ(x, x, y) == x.
    if (f[0] == f[1] || f[0] == f[2]) return f[0];
    if (f[1] == f[2]) return f[1];
    // Constant operand reduces to AND/OR of the others.
    for (int i = 0; i < 3; ++i) {
      if (const auto k = const_value(next, f[i])) {
        const NodeId a = f[(i + 1) % 3];
        const NodeId b = f[(i + 2) % 3];
        const ReducedOperands r =
            reduce_and_or(next, std::vector<NodeId>{a, b}, /*identity=*/!*k);
        // MAJ(a, b, 1) == OR(a, b); MAJ(a, b, 0) == AND(a, b). The dominating
        // constant of that gate equals *k, the neutral one equals !*k.
        if (r.dominated) return emit_const(next, *k);
        if (r.operands.empty()) return emit_const(next, !*k);
        if (r.operands.size() == 1) return r.operands[0];
        return next.add_gate(*k ? GateType::kOr : GateType::kAnd, r.operands);
      }
    }
    return next.add_gate(GateType::kMaj, f[0], f[1], f[2]);
  }

  const Circuit& old_;
  std::vector<NodeId> map_;
};

}  // namespace

Circuit sweep(const Circuit& circuit) {
  constexpr int kMaxPasses = 8;
  Circuit current = SweepPass(circuit).run();
  for (int pass = 1; pass < kMaxPasses; ++pass) {
    Circuit next = SweepPass(current).run();
    if (next.node_count() == current.node_count() &&
        next.gate_count() == current.gate_count()) {
      return next;
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace enb::synth
