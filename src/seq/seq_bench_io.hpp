// Sequential .bench I/O: the standard ISCAS'89-style dialect where
//   q = DFF(d)
// declares a flip-flop. The reader is netlist::scan_bench with latches
// enabled (the one definition of the dialect, netlist/bench_io.hpp) followed
// by build_bench: DFF outputs become core primary inputs in statement order
// and DFF data nodes become latch inputs. The writer emits the reverse.
// Initial state defaults to 0, matching common .bench usage.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "seq/seq_circuit.hpp"

namespace enb::seq {

[[nodiscard]] SeqCircuit read_seq_bench_string(std::string_view text,
                                               std::string name = "");
[[nodiscard]] SeqCircuit read_seq_bench_file(const std::string& path);

void write_seq_bench(const SeqCircuit& seq, std::ostream& out);
[[nodiscard]] std::string write_seq_bench_string(const SeqCircuit& seq);

}  // namespace enb::seq
