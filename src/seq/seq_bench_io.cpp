#include "seq/seq_bench_io.hpp"

#include <ostream>
#include <sstream>

#include "netlist/bench_io.hpp"

namespace enb::seq {

SeqCircuit read_seq_bench_string(std::string_view text, std::string name) {
  netlist::BenchCircuit built =
      netlist::build_bench(netlist::scan_bench(text, /*latches=*/true));
  SeqCircuit seq(std::move(name));
  seq.core() = std::move(built.circuit);
  for (const auto& [state, data] : built.latches) {
    seq.add_latch(state, data, false, seq.core().node_name(state));
  }
  return seq;
}

SeqCircuit read_seq_bench_file(const std::string& path) {
  netlist::BenchFile file = netlist::load_bench_file(path);
  return read_seq_bench_string(file.text, std::move(file.stem));
}

void write_seq_bench(const SeqCircuit& seq, std::ostream& out) {
  const netlist::Circuit& core = seq.core();
  out << "# " << (seq.name().empty() ? "enbound sequential circuit"
                                     : seq.name())
      << "\n";
  for (netlist::NodeId id : seq.free_inputs()) {
    out << "INPUT(" << core.node_name(id) << ")\n";
  }
  for (netlist::NodeId id : core.outputs()) {
    out << "OUTPUT(" << core.node_name(id) << ")\n";
  }
  for (const Latch& latch : seq.latches()) {
    out << core.node_name(latch.state_output) << " = DFF("
        << core.node_name(latch.next_state) << ")\n";
  }
  for (netlist::NodeId id = 0; id < core.node_count(); ++id) {
    const auto type = core.type(id);
    const auto fanins = core.fanins(id);
    if (type == netlist::GateType::kInput) continue;
    out << core.node_name(id) << " = " << to_string(type) << "(";
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (i != 0) out << ", ";
      out << core.node_name(fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_seq_bench_string(const SeqCircuit& seq) {
  std::ostringstream out;
  write_seq_bench(seq, out);
  return out.str();
}

}  // namespace enb::seq
