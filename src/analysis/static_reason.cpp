#include "analysis/static_reason.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "bdd/bdd.hpp"
#include "bdd/circuit_to_bdd.hpp"
#include "exec/stream.hpp"
#include "netlist/flat.hpp"
#include "netlist/topo.hpp"
#include "obs/trace.hpp"
#include "sim/logic_sim.hpp"

namespace enb::analysis {

using netlist::Circuit;
using netlist::GateOp;
using netlist::GateType;
using netlist::kInvalidNode;
using netlist::NodeId;
using synth::LogicValue;
using synth::StructuralHasher;
using synth::to_logic;

namespace {

// Probe-learning sweeps analyze_constants runs at most.
constexpr int kMaxProbeRounds = 3;

// ---------------------------------------------------------------------------
// Partial evaluation: the value of a gate when only some fanins are known.
// ---------------------------------------------------------------------------

LogicValue partial_eval(GateType type, const Circuit& circuit, NodeId id,
                        const std::vector<LogicValue>& val) {
  const auto fanins = circuit.fanins(id);
  const GateOp op = netlist::gate_op(type);
  LogicValue out = LogicValue::kUnknown;
  switch (op) {
    case GateOp::kInput:
      return val[id];
    case GateOp::kConst:
      out = LogicValue::kZero;
      break;
    case GateOp::kBuf:
      out = val[fanins[0]];
      break;
    case GateOp::kAnd:
    case GateOp::kOr: {
      // One controlling fanin decides; otherwise every fanin must be known.
      const LogicValue control = to_logic(netlist::controlling_value(op));
      out = negate(control);
      for (const NodeId f : fanins) {
        if (val[f] == control) {
          out = control;
          break;
        }
        if (val[f] == LogicValue::kUnknown) out = LogicValue::kUnknown;
      }
      break;
    }
    case GateOp::kXor: {
      bool parity = false;
      for (const NodeId f : fanins) {
        if (val[f] == LogicValue::kUnknown) return LogicValue::kUnknown;
        parity ^= val[f] == LogicValue::kOne;
      }
      out = to_logic(parity);
      break;
    }
    case GateOp::kMaj: {
      int ones = 0;
      int zeros = 0;
      for (const NodeId f : fanins) {
        ones += val[f] == LogicValue::kOne;
        zeros += val[f] == LogicValue::kZero;
      }
      if (ones >= 2) out = LogicValue::kOne;
      if (zeros >= 2) out = LogicValue::kZero;
      break;
    }
  }
  return netlist::is_inverted(type) ? negate(out) : out;
}

// The implication engine: one partial assignment shared by every probe,
// plus a trail of the nodes assigned since the last commit() or undo().
// Facts flow forward (gate evaluation with partial fanins) and backward
// (controlling-value rules); a net assigned both values is a contradiction,
// which is exactly what probe learning looks for. The trail doubles as the
// FIFO propagation queue, and undo() resets only the nodes it lists, so a
// probe costs the size of its implication, not the size of the circuit.
class ImplicationEngine {
 public:
  ImplicationEngine(const Circuit& circuit, const netlist::Fanouts& fanouts,
                    std::vector<LogicValue> seed)
      : circuit_(&circuit), fanouts_(&fanouts), val_(std::move(seed)) {}

  [[nodiscard]] LogicValue value(NodeId id) const { return val_[id]; }
  [[nodiscard]] std::vector<LogicValue> take_values() && {
    return std::move(val_);
  }
  // Nodes assigned since the last commit() or undo(), in assignment order.
  [[nodiscard]] const std::vector<NodeId>& trail() const noexcept {
    return trail_;
  }

  // Asserts `id = value` on top of the committed assignment and pushes
  // implications to a fixpoint. Returns false on contradiction; whatever was
  // assigned up to it stays on the trail either way.
  bool assume(NodeId id, LogicValue value) {
    consistent_ = true;
    assign(id, value);
    propagate();
    return consistent_;
  }

  // Drops the trail's assignments, restoring the committed assignment.
  void undo() {
    for (const NodeId id : trail_) val_[id] = LogicValue::kUnknown;
    clear_trail();
  }
  // Keeps the trail's assignments as committed facts.
  void commit() { clear_trail(); }

 private:
  void clear_trail() {
    trail_.clear();
    head_ = 0;
  }

  void assign(NodeId id, LogicValue value) {
    if (value == LogicValue::kUnknown || !consistent_) return;
    if (val_[id] != LogicValue::kUnknown) {
      if (val_[id] != value) consistent_ = false;
      return;
    }
    val_[id] = value;
    trail_.push_back(id);
  }

  void propagate() {
    while (consistent_ && head_ < trail_.size()) {
      const NodeId id = trail_[head_++];
      // Backward from the newly known net into its own fanins.
      backward(id);
      // Forward through every fanout: the new fact may force the fanout's
      // output, or — when the fanout output is already known — newly
      // enable one of its backward rules.
      for (const NodeId g : fanouts_->of(id)) {
        const LogicValue forced =
            partial_eval(circuit_->type(g), *circuit_, g, val_);
        if (forced != LogicValue::kUnknown) assign(g, forced);
        if (val_[g] != LogicValue::kUnknown) backward(g);
        if (!consistent_) return;
      }
    }
  }

  // Controlling-value implications from a known gate output into its
  // fanins.
  void backward(NodeId id) {
    if (val_[id] == LogicValue::kUnknown) return;
    const GateType type = circuit_->type(id);
    const GateOp op = netlist::gate_op(type);
    const auto fanins = circuit_->fanins(id);
    // The output seen before the gate's inversion.
    const LogicValue out =
        netlist::is_inverted(type) ? negate(val_[id]) : val_[id];
    switch (op) {
      case GateOp::kBuf:
        assign(fanins[0], out);
        break;
      case GateOp::kAnd:
      case GateOp::kOr: {
        const LogicValue control = to_logic(netlist::controlling_value(op));
        if (out != control) {
          for (const NodeId f : fanins) assign(f, out);
          break;
        }
        // The controlling value must come from somewhere: when no known
        // fanin carries it and exactly one fanin is free, that one does.
        NodeId free = kInvalidNode;
        for (const NodeId f : fanins) {
          if (val_[f] == control) return;  // already satisfied
          if (val_[f] == LogicValue::kUnknown) {
            if (free != kInvalidNode) return;  // more than one candidate
            free = f;
          }
        }
        if (free != kInvalidNode) assign(free, control);
        break;
      }
      case GateOp::kXor: {
        NodeId free = kInvalidNode;
        bool parity = out == LogicValue::kOne;
        for (const NodeId f : fanins) {
          if (val_[f] == LogicValue::kUnknown) {
            if (free != kInvalidNode) return;  // two unknowns: no implication
            free = f;
          } else {
            parity ^= val_[f] == LogicValue::kOne;
          }
        }
        if (free != kInvalidNode) assign(free, to_logic(parity));
        break;
      }
      case GateOp::kMaj: {
        // MAJ(a,b,c) = v with one fanin at !v forces the other two to v.
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          if (val_[fanins[i]] == negate(out)) {
            for (std::size_t j = 0; j < fanins.size(); ++j) {
              if (j != i) assign(fanins[j], out);
            }
            return;
          }
        }
        break;
      }
      case GateOp::kInput:
      case GateOp::kConst:
        break;
    }
  }

  const Circuit* circuit_;
  const netlist::Fanouts* fanouts_;
  std::vector<LogicValue> val_;
  std::vector<NodeId> trail_;
  std::size_t head_ = 0;  // trail_[head_..] is the propagation queue
  bool consistent_ = true;
};

}  // namespace

std::vector<LogicValue> forward_constants(const Circuit& circuit) {
  // Forward propagation from constant gates. One topological scan reaches
  // the fixpoint because fanins always have lower ids.
  std::vector<LogicValue> forward(circuit.node_count(), LogicValue::kUnknown);
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (circuit.type(id) == GateType::kInput) continue;
    forward[id] = partial_eval(circuit.type(id), circuit, id, forward);
  }
  return forward;
}

ConstantFacts analyze_constants(const Circuit& circuit) {
  const obs::Span span("static-constants", {}, circuit.name());
  ConstantFacts facts;
  const std::size_t n = circuit.node_count();
  facts.forward = forward_constants(circuit);

  // Tier two: probe every still-unknown net at both values and learn from
  // contradictions and branch agreement, iterating until nothing new. Both
  // branches run on the engine's one assignment and are undone afterwards.
  const netlist::Fanouts fanouts(circuit);
  ImplicationEngine engine(circuit, fanouts, facts.forward);
  const auto learn = [&](NodeId id, LogicValue value) {
    // The circuit itself is consistent, so folding a proved fact back in
    // can never contradict; keep whatever the fixpoint derived with it.
    engine.assume(id, value);
    engine.commit();
    ++facts.learned;
  };
  std::vector<std::pair<NodeId, LogicValue>> zero_branch;
  std::vector<std::pair<NodeId, LogicValue>> agreed;
  for (int round = 0; round < kMaxProbeRounds; ++round) {
    bool changed = false;
    ++facts.probe_rounds;
    for (NodeId id = 0; id < n; ++id) {
      if (engine.value(id) != LogicValue::kUnknown) continue;
      const bool zero_ok = engine.assume(id, LogicValue::kZero);
      zero_branch.clear();
      for (const NodeId m : engine.trail()) {
        zero_branch.emplace_back(m, engine.value(m));
      }
      engine.undo();
      const bool one_ok = engine.assume(id, LogicValue::kOne);
      facts.probes += 2;
      // Values forced under both branches hold unconditionally. Only nodes
      // the zero branch assigned can agree.
      agreed.clear();
      if (zero_ok && one_ok) {
        for (const auto& [m, v] : zero_branch) {
          if (engine.value(m) == v) agreed.emplace_back(m, v);
        }
      }
      engine.undo();
      if (!zero_ok && !one_ok) continue;  // unreachable for a real circuit
      if (!zero_ok || !one_ok) {
        learn(id, zero_ok ? LogicValue::kZero : LogicValue::kOne);
        changed = true;
        continue;
      }
      // Learned in ascending node order; an earlier fact's implications may
      // already cover a later one.
      std::sort(agreed.begin(), agreed.end());
      for (const auto& [m, v] : agreed) {
        if (engine.value(m) != LogicValue::kUnknown) continue;
        learn(m, v);
        changed = true;
      }
    }
    if (!changed) break;
  }
  facts.proved = std::move(engine).take_values();
  return facts;
}

// ---------------------------------------------------------------------------
// Combinational equivalence checking.
// ---------------------------------------------------------------------------

namespace {

// Builds BDDs only for the cones of the listed output positions — the BDD
// stage usually runs on a handful of leftover pairs, and restricting to
// their fanin keeps the node budget for the cones that matter.
std::vector<bdd::Ref> cone_output_bdds(bdd::Bdd& manager,
                                       const Circuit& circuit,
                                       const std::vector<std::size_t>& pairs) {
  std::vector<NodeId> roots;
  roots.reserve(pairs.size());
  for (const std::size_t o : pairs) roots.push_back(circuit.outputs()[o]);
  const std::vector<bool> cone = netlist::transitive_fanin(circuit, roots);
  const std::vector<bdd::Ref> refs =
      bdd::build_node_bdds(manager, circuit, &cone);
  std::vector<bdd::Ref> out;
  out.reserve(pairs.size());
  for (const std::size_t o : pairs) out.push_back(refs[circuit.outputs()[o]]);
  return out;
}

std::string output_label(const Circuit& circuit, std::size_t position) {
  const std::string name = circuit.output_name(position);
  return name.empty() ? "#" + std::to_string(position) : name;
}

}  // namespace

CecResult check_equivalence(const Circuit& a, const Circuit& b,
                            const CecOptions& options) {
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    throw std::invalid_argument(
        "cec: interface mismatch: " + std::to_string(a.num_inputs()) + "i/" +
        std::to_string(a.num_outputs()) + "o vs " +
        std::to_string(b.num_inputs()) + "i/" +
        std::to_string(b.num_outputs()) + "o");
  }
  if (options.signature_words < 1) {
    throw std::invalid_argument("cec: signature_words must be >= 1");
  }
  CecResult result;
  result.outputs = a.num_outputs();
  result.signature_words = static_cast<std::uint64_t>(options.signature_words);
  if (a.num_outputs() == 0) {
    result.equivalent = true;
    return result;
  }

  // Stage 1: random-simulation signatures. 64 patterns per word, drawn from
  // counter-based streams so the refutation (and the named first mismatch)
  // is a pure function of the seed.
  std::vector<bool> refuted(a.num_outputs(), false);
  {
    sim::LogicSim sim_a(a);
    sim::LogicSim sim_b(b);
    std::vector<sim::Word> inputs(a.num_inputs());
    for (int w = 0; w < options.signature_words; ++w) {
      const std::uint64_t word_seed =
          exec::stream_seed(options.seed, static_cast<std::uint64_t>(w));
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = exec::stream_seed(word_seed, i);
      }
      sim_a.eval(inputs);
      sim_b.eval(inputs);
      const std::vector<sim::Word> out_a = sim_a.output_values();
      const std::vector<sim::Word> out_b = sim_b.output_values();
      for (std::size_t o = 0; o < out_a.size(); ++o) {
        if (!refuted[o] && out_a[o] != out_b[o]) {
          refuted[o] = true;
          ++result.refuted;
          if (result.first_mismatch_output.empty()) {
            result.first_mismatch_output = output_label(a, o);
          }
        }
      }
    }
  }

  std::vector<std::size_t> open;
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    if (!refuted[o]) open.push_back(o);
  }

  // Stage 2: structural discharge. Both circuits hash into one shared
  // hasher, so equal canonical ids across circuits prove equal functions.
  // Plain structure settles most pairs (TMR replicas and strash rewrites
  // collapse to their base's ids); only when an output is still open are
  // both circuits' constants proved and the pair rehashed, in a fresh
  // hasher, with them folded in.
  const auto discharge = [&](const std::vector<LogicValue>* constants_a,
                             const std::vector<LogicValue>* constants_b) {
    StructuralHasher hasher(a.num_inputs());
    const std::vector<std::uint32_t> ids_a =
        hasher.hash_circuit(a, constants_a);
    const std::vector<std::uint32_t> ids_b =
        hasher.hash_circuit(b, constants_b);
    std::erase_if(open, [&](std::size_t o) {
      if (ids_a[a.outputs()[o]] != ids_b[b.outputs()[o]]) return false;
      ++result.proved_structural;
      return true;
    });
  };
  if (!open.empty()) discharge(nullptr, nullptr);
  if (!open.empty()) {
    const ConstantFacts facts_a = analyze_constants(a);
    const ConstantFacts facts_b = analyze_constants(b);
    discharge(&facts_a.proved, &facts_b.proved);
  }

  // Stage 3: the BDD engine. One shared manager maps input position i of
  // both circuits to variable i; canonicity makes Ref equality the exact
  // verdict. A node-budget blowout means "no verdict", never "different".
  if (!open.empty()) {
    try {
      bdd::Bdd manager(static_cast<unsigned>(a.num_inputs()),
                       options.bdd_node_limit);
      const std::vector<bdd::Ref> refs_a = cone_output_bdds(manager, a, open);
      const std::vector<bdd::Ref> refs_b = cone_output_bdds(manager, b, open);
      for (std::size_t i = 0; i < open.size(); ++i) {
        if (refs_a[i] == refs_b[i]) {
          ++result.proved_bdd;
        } else {
          ++result.refuted;
          if (result.first_mismatch_output.empty()) {
            result.first_mismatch_output = output_label(a, open[i]);
          }
        }
      }
    } catch (const bdd::BddLimitExceeded&) {
      result.inconclusive = true;
    }
  }

  result.equivalent = result.refuted == 0 && !result.inconclusive;
  return result;
}

}  // namespace enb::analysis
