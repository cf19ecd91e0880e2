#include "ft/voter.hpp"

#include <stdexcept>
#include <string>

namespace enb::ft {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

NodeId append_maj3(Circuit& c, NodeId a, NodeId b, NodeId d,
                   VoterStyle style) {
  if (style == VoterStyle::kMajGate) {
    return c.add_gate(GateType::kMaj, a, b, d);
  }
  const NodeId ab = c.add_gate(GateType::kAnd, a, b);
  const NodeId a_or_b = c.add_gate(GateType::kOr, a, b);
  const NodeId d_sel = c.add_gate(GateType::kAnd, d, a_or_b);
  return c.add_gate(GateType::kOr, ab, d_sel);
}

namespace {

// {sum, carry} of a 1-bit addition.
struct Compressed {
  NodeId sum;
  NodeId carry;
};

Compressed full_add(Circuit& c, NodeId a, NodeId b, NodeId cin) {
  const NodeId axb = c.add_gate(GateType::kXor, a, b);
  const NodeId sum = c.add_gate(GateType::kXor, axb, cin);
  const NodeId ab = c.add_gate(GateType::kAnd, a, b);
  const NodeId ct = c.add_gate(GateType::kAnd, cin, axb);
  return {sum, c.add_gate(GateType::kOr, ab, ct)};
}

Compressed half_add(Circuit& c, NodeId a, NodeId b) {
  return {c.add_gate(GateType::kXor, a, b), c.add_gate(GateType::kAnd, a, b)};
}

}  // namespace

NodeId append_majority(Circuit& c, const std::vector<NodeId>& signals,
                       VoterStyle style) {
  const std::size_t n = signals.size();
  if (n < 3 || n % 2 == 0) {
    throw std::invalid_argument(
        "append_majority: need an odd count >= 3, got " + std::to_string(n));
  }
  if (n == 3) return append_maj3(c, signals[0], signals[1], signals[2], style);

  // Population count via column compression (Wallace-style over one column),
  // then compare against the threshold N/2 (i.e. count >= (N+1)/2).
  std::vector<std::vector<NodeId>> columns(1, signals);
  for (std::size_t w = 0; w < columns.size(); ++w) {
    while (columns[w].size() >= 3) {
      const NodeId x = columns[w][0];
      const NodeId y = columns[w][1];
      const NodeId z = columns[w][2];
      columns[w].erase(columns[w].begin(), columns[w].begin() + 3);
      const Compressed fa = full_add(c, x, y, z);
      columns[w].push_back(fa.sum);
      if (w + 1 == columns.size()) columns.emplace_back();
      columns[w + 1].push_back(fa.carry);
    }
    if (columns[w].size() == 2) {
      const Compressed ha = half_add(c, columns[w][0], columns[w][1]);
      columns[w].assign(1, ha.sum);
      if (w + 1 == columns.size()) columns.emplace_back();
      columns[w + 1].push_back(ha.carry);
    }
  }
  // columns[w] now holds bit w of the count. Compare count >= threshold
  // from the LSB up, keeping ge_w = (count[0..w] >= threshold[0..w]):
  //   ge_w = (bit > t) | ((bit == t) & ge_{w-1}),   ge_{-1} = 1,
  // where t is threshold bit w. For t = 1 that is bit & ge_{w-1}; for
  // t = 0 it is bit | ge_{w-1}.
  const auto threshold = static_cast<std::uint64_t>((n + 1) / 2);
  NodeId ge = c.add_const(true);
  for (std::size_t w = 0; w < columns.size(); ++w) {
    const NodeId bit = columns[w][0];
    const bool tbit = ((threshold >> w) & 1U) != 0;
    ge = c.add_gate(tbit ? GateType::kAnd : GateType::kOr, bit, ge);
  }
  return ge;
}

}  // namespace enb::ft
