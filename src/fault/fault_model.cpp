#include "fault/fault_model.hpp"

#include <algorithm>
#include <numeric>

#include "fault/untestable.hpp"
#include "netlist/nets.hpp"
#include "netlist/topo.hpp"

namespace enb::fault {

namespace {

using netlist::Circuit;
using netlist::GateOp;
using netlist::NodeId;

// Union-find over site indices with path halving; roots are always the
// smallest member, which makes representatives canonical without a second
// normalization pass.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;  // smaller index wins the root
  }

 private:
  std::vector<std::size_t> parent_;
};

constexpr StuckAt stuck_at(bool value) noexcept {
  return value ? StuckAt::kOne : StuckAt::kZero;
}

}  // namespace

FaultUniverse FaultUniverse::build(const Circuit& circuit, bool collapse,
                                   bool prune_untestable) {
  FaultUniverse universe;
  const std::vector<netlist::NetInfo> nets = netlist::enumerate_nets(circuit);
  universe.sites_.reserve(nets.size() * 2);
  for (const netlist::NetInfo& net : nets) {
    universe.sites_.push_back({net.node, StuckAt::kZero});
    universe.sites_.push_back({net.node, StuckAt::kOne});
  }

  UnionFind classes(universe.sites_.size());
  if (collapse) {
    // A fanin fault may only collapse into its gate when the fanin net is
    // observed *nowhere else*: exactly one fanout edge and no primary-output
    // listing (an output port observes the net directly, so forcing it is
    // distinguishable from forcing the gate's output).
    const std::vector<int> fanouts = netlist::fanout_counts(circuit);
    std::vector<bool> is_output(circuit.node_count(), false);
    for (const NodeId out : circuit.outputs()) is_output[out] = true;

    for (NodeId id = 0; id < circuit.node_count(); ++id) {
      const auto type = circuit.type(id);
      const auto fanins = circuit.fanins(id);
      if (!netlist::counts_as_gate(type)) continue;
      // A single-fanin gate is a buffer or an inverter whatever its
      // operator: both stuck polarities pass straight through it. A wider
      // gate with a controlling value c and output inversion i collapses
      // an input stuck at c into the output stuck at c XOR i. XOR and MAJ
      // have no controlling value, hence no equivalence.
      const GateOp op = netlist::gate_op(type);
      const bool inverted = netlist::is_inverted(type);
      const bool single = fanins.size() == 1;
      if (!single && op != GateOp::kAnd && op != GateOp::kOr) continue;
      for (const NodeId fanin : fanins) {
        if (fanouts[fanin] != 1 || is_output[fanin]) continue;
        if (single) {
          classes.merge(site_index(fanin, StuckAt::kZero),
                        site_index(id, stuck_at(inverted)));
          classes.merge(site_index(fanin, StuckAt::kOne),
                        site_index(id, stuck_at(!inverted)));
        } else {
          const bool control = netlist::controlling_value(op);
          classes.merge(site_index(fanin, stuck_at(control)),
                        site_index(id, stuck_at(control != inverted)));
        }
      }
    }
  }

  // Number the classes in order of their lowest site index (== their root,
  // by the union-find's smaller-index-wins policy).
  universe.class_of_.assign(universe.sites_.size(), 0);
  std::vector<std::size_t> class_of_root(universe.sites_.size(),
                                         static_cast<std::size_t>(-1));
  for (std::size_t s = 0; s < universe.sites_.size(); ++s) {
    const std::size_t root = classes.find(s);
    if (class_of_root[root] == static_cast<std::size_t>(-1)) {
      class_of_root[root] = universe.rep_site_.size();
      universe.rep_site_.push_back(root);
    }
    universe.class_of_[s] = class_of_root[root];
  }

  if (prune_untestable) {
    const UntestableReport report = find_untestable(circuit, universe);
    universe.untestable_ = report.class_untestable;
    universe.num_untestable_ = report.untestable_classes;
    universe.pruned_ = true;
  }
  return universe;
}

}  // namespace enb::fault
