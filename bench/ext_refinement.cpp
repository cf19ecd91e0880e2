// Extension R1 (the paper's future work): refinement of the lower bounds by
// circuit functionality. Compares Corollary 1's whole-function redundancy
// floor against the per-output-cone refinement across the suite.
#include "bench_common.hpp"
#include "core/refine.hpp"
#include "gen/suite.hpp"
#include "synth/mapper.hpp"

int main() {
  using namespace enb;
  bench::banner("ext_refinement",
                "whole-function vs per-output-cone size bounds");

  const double eps = 0.01;
  const double delta = 0.01;

  report::Table table({"benchmark", "R_whole", "R_refined", "gain",
                       "dominant output"});
  std::vector<std::vector<std::string>> csv_rows;
  int helped = 0;
  int total = 0;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const auto mapped = synth::map_to_library(spec.build(), 3);
    // Cone profiling is exhaustive-sensitive; keep it tractable.
    core::ProfileOptions options;
    options.sensitivity_exact_max_inputs = bench::smoke_mode() ? 12 : 16;
    options.activity_pairs =
        static_cast<std::size_t>(bench::scaled(1 << 10, 1 << 6));
    const core::RefinedReport r =
        core::refine_size_bound(mapped.circuit, eps, delta, options);
    std::string dominant = "-";
    double best = -1.0;
    for (const auto& ob : r.outputs) {
      if (ob.redundancy_gates > best) {
        best = ob.redundancy_gates;
        dominant = ob.output_name;
      }
    }
    table.add_row({spec.name, report::format_double(r.whole_redundancy, 4),
                   report::format_double(r.refined_redundancy, 4),
                   report::format_double(
                       r.refined_redundancy / std::max(1e-12, r.whole_redundancy),
                       4),
                   dominant});
    csv_rows.push_back({spec.name,
                        report::format_double(r.whole_redundancy, 8),
                        report::format_double(r.refined_redundancy, 8)});
    ++total;
    if (r.refinement_helps()) ++helped;
  }
  std::cout << table.to_text() << "\n";
  report::write_csv_file(std::string(bench::kOutDir) + "/ext_refinement.csv",
                         {"benchmark", "R_whole", "R_refined"}, csv_rows);
  std::cout << "wrote " << bench::kOutDir << "/ext_refinement.csv\n";
  std::cout << "\nfinding: the per-output refinement tightened the floor on "
            << helped << "/" << total << " benchmarks";
  if (helped == 0) {
    std::cout << " — on this suite every benchmark's sensitivity-dominant "
                 "output cone already has the same average fanin as the "
                 "whole netlist, so Corollary 1 is per-output-tight here; "
                 "the refinement wins only on heterogeneous-cone circuits "
                 "(see test_refine.RefinementCanBeatGlobalBound for a "
                 "constructed example)";
  } else {
    std::cout << " — it wins exactly where one output's cone has smaller "
                 "average fanin or concentrated sensitivity relative to the "
                 "whole netlist";
  }
  std::cout << "\n";
  return 0;
}
