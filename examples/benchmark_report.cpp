// Full benchmark report: regenerates the paper's Section 6 data for the
// whole substitute suite — profiles, every bound, and a markdown table ready
// to paste into documentation. This is the "one command to see everything"
// entry point.
#include <iostream>

#include "core/analyzer.hpp"
#include "gen/suite.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "synth/mapper.hpp"

int main() {
  using namespace enb;

  const double delta = 0.01;
  const std::vector<double> epsilons{0.001, 0.01, 0.1};

  report::Table table({"benchmark", "S0", "k", "sw0", "s", "E(0.001)",
                       "E(0.01)", "E(0.1)", "D(0.01)", "P(0.01)",
                       "EDP(0.01)"});
  std::vector<std::vector<std::string>> csv_rows;

  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    const auto mapped = synth::map_to_library(spec.build(), 3);
    const core::CircuitProfile profile =
        core::extract_profile(mapped.circuit);

    std::vector<std::string> cells{
        spec.name, report::format_double(profile.size_s0, 5),
        report::format_double(profile.avg_fanin_k, 3),
        report::format_double(profile.avg_activity_sw0, 3),
        report::format_double(profile.sensitivity_s, 4)};
    std::vector<std::string> csv_row = cells;
    for (double eps : epsilons) {
      const auto r = core::analyze(profile, eps, delta);
      cells.push_back(report::format_double(r.energy.total_factor, 4));
      csv_row.push_back(report::format_double(r.energy.total_factor, 8));
    }
    const auto mid = core::analyze(profile, 0.01, delta);
    cells.push_back(report::format_double(mid.metrics.delay, 4));
    cells.push_back(report::format_double(mid.metrics.avg_power, 4));
    cells.push_back(report::format_double(mid.metrics.edp, 4));
    table.add_row(cells);

    csv_row.push_back(report::format_double(mid.metrics.delay, 8));
    csv_rows.push_back(csv_row);
  }

  std::cout << "enbound benchmark report (delta = 0.01, generic fanin-3 "
               "library, 50% leakage baseline)\n\n";
  std::cout << table.to_text() << "\n";
  std::cout << "markdown:\n\n" << table.to_markdown() << "\n";

  report::write_csv_file("bench_out/benchmark_report.csv",
                         {"benchmark", "S0", "k", "sw0", "s", "E_0.001",
                          "E_0.01", "E_0.1", "D_0.01"},
                         csv_rows);
  std::cout << "wrote bench_out/benchmark_report.csv\n";
  return 0;
}
