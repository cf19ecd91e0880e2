#include "seq/unroll.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace enb::seq {

using netlist::Circuit;
using netlist::NodeId;

Circuit unroll(const SeqCircuit& seq, const UnrollOptions& options) {
  if (options.frames < 1) {
    throw std::invalid_argument("unroll: frames must be >= 1");
  }
  seq.validate();
  const Circuit& core = seq.core();
  Circuit out(seq.name() + "_x" + std::to_string(options.frames));

  // Current frame's state values in latch order; frame 0 uses the initial
  // constants, or fresh inputs when analyzing the transition function.
  std::vector<NodeId> state;
  state.reserve(seq.num_latches());
  for (std::size_t l = 0; l < seq.num_latches(); ++l) {
    const Latch& latch = seq.latches()[l];
    if (options.initial_state_as_inputs) {
      const std::string base =
          latch.name.empty() ? "latch" + std::to_string(l) : latch.name;
      state.push_back(out.add_input(base + "@init"));
    } else {
      state.push_back(out.add_const(latch.initial_value));
    }
  }

  const std::vector<NodeId> free_inputs = seq.free_inputs();
  for (int frame = 0; frame < options.frames; ++frame) {
    // Build the substitution vector for the core's primary inputs.
    std::vector<NodeId> substitutes(core.num_inputs(), netlist::kInvalidNode);
    for (std::size_t l = 0; l < seq.num_latches(); ++l) {
      substitutes[static_cast<std::size_t>(
          core.input_index(seq.latches()[l].state_output))] = state[l];
    }
    for (NodeId id : free_inputs) {
      substitutes[static_cast<std::size_t>(core.input_index(id))] =
          out.add_input(core.node_name(id) + "@" + std::to_string(frame));
    }

    // Instantiate the frame. We need both the primary outputs and the
    // next-state nodes, so map the whole core via a temporary output list.
    // append_circuit returns outputs only, so instantiate against a core
    // clone whose outputs are (real outputs ++ next states).
    // Cheaper: rebuild the mapping inline.
    std::vector<NodeId> map(core.node_count(), netlist::kInvalidNode);
    for (std::size_t i = 0; i < core.num_inputs(); ++i) {
      map[core.inputs()[i]] = substitutes[i];
    }
    for (NodeId id = 0; id < core.node_count(); ++id) {
      const auto type = core.type(id);
      if (type == netlist::GateType::kInput) continue;
      if (netlist::is_constant(type)) {
        map[id] = out.add_const(type == netlist::GateType::kConst1);
        continue;
      }
      std::vector<NodeId> fanins;
      fanins.reserve(core.fanins(id).size());
      for (NodeId f : core.fanins(id)) fanins.push_back(map[f]);
      map[id] = out.add_gate(type, std::move(fanins));
    }

    if (options.outputs_every_frame || frame == options.frames - 1) {
      for (std::size_t pos = 0; pos < core.num_outputs(); ++pos) {
        out.add_output(map[core.outputs()[pos]],
                       core.output_name(pos) + "@" + std::to_string(frame));
      }
    }
    for (std::size_t l = 0; l < seq.num_latches(); ++l) {
      state[l] = map[seq.latches()[l].next_state];
    }
  }

  if (options.expose_final_state) {
    for (std::size_t l = 0; l < seq.num_latches(); ++l) {
      const std::string base = seq.latches()[l].name.empty()
                                   ? "latch" + std::to_string(l)
                                   : seq.latches()[l].name;
      out.add_output(state[l], base + "@final");
    }
  }
  return out;
}

}  // namespace enb::seq
