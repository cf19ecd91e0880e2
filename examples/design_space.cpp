// Design-space exploration: where is reliable computation even possible, and
// what does it cost? Sweeps (eps, delta) for a mapped array multiplier,
// prints the Theorem 4 feasibility frontier, iso-energy contours, and the
// Section 5.2 voltage-scaling trade-offs at a chosen operating point.
#include <cmath>
#include <iostream>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"
#include "core/delay_model.hpp"
#include "core/depth_bound.hpp"
#include "exec/batch.hpp"
#include "gen/multipliers.hpp"
#include "report/ascii_chart.hpp"
#include "report/table.hpp"

int main() {
  using namespace enb;

  // One compiled handle: the profile extracted here feeds every analysis
  // below (grid, sweep, voltage scaling) from the handle's cache.
  const analysis::CompiledCircuit mapped =
      analysis::compile(gen::array_multiplier(4)).mapped(3);
  const core::CircuitProfile& profile = mapped.profile();
  std::cout << "circuit: " << profile.name << " mapped to fanin <= 3, S0 = "
            << profile.size_s0 << ", k = " << profile.avg_fanin_k << "\n\n";

  // Feasibility frontier: the largest eps admitting any depth bound at all.
  std::cout << "Theorem 4 feasibility: gates of average fanin "
            << profile.avg_fanin_k << " tolerate eps < "
            << report::format_double(
                   core::max_feasible_epsilon(profile.avg_fanin_k), 4)
            << "; beyond that only functions of n <= 1/Delta(delta) inputs "
               "are computable.\n\n";

  // Energy-bound landscape over (eps, delta).
  report::Table grid({"eps \\ delta", "0.001", "0.01", "0.05", "0.1"});
  for (double eps : {0.001, 0.005, 0.01, 0.05, 0.1}) {
    std::vector<double> row;
    for (double delta : {0.001, 0.01, 0.05, 0.1}) {
      row.push_back(
          core::analyze(profile, eps, delta).energy.total_factor);
    }
    grid.add_row(report::format_double(eps, 3), row);
  }
  std::cout << "total-energy lower-bound factor over (eps, delta):\n"
            << grid.to_text() << "\n";

  // Energy and delay vs eps as a chart. Grid points are independent
  // energy-bound requests on the shared handle — its cached profile feeds
  // every point, so the sweep performs zero extractions and zero netlist
  // copies.
  const std::vector<double> eps_grid = core::log_grid(1e-3, 0.2, 24);
  exec::BatchEvaluator batch;
  for (std::size_t i = 0; i < eps_grid.size(); ++i) {
    analysis::AnalysisRequest request;
    request.name = "eps_" + std::to_string(i);
    request.circuit = mapped;
    analysis::EnergyBoundRequest spec;
    spec.epsilon = eps_grid[i];
    spec.delta = 0.01;
    request.options = spec;
    batch.submit(std::move(request));
  }
  const std::vector<analysis::AnalysisResult> sweep = batch.run();
  report::Series energy("energy", {}, {});
  report::Series delay("delay", {}, {});
  for (std::size_t i = 0; i < eps_grid.size(); ++i) {
    if (!sweep[i].ok) {
      std::cerr << "energy-bound job " << sweep[i].name
                << " failed: " << sweep[i].error << "\n";
      return 1;
    }
    energy.push(eps_grid[i], sweep[i].metric("total_factor").value());
    delay.push(eps_grid[i], sweep[i].metric("delay_factor").value());
  }
  report::ChartOptions chart;
  chart.title = "bounds vs eps (delta = 0.01)";
  chart.log_x = true;
  chart.x_label = "eps";
  std::cout << report::line_chart({energy, delay}, chart) << "\n";

  // Section 5.2: what voltage scaling does to the raw bound point.
  const auto r = core::analyze(profile, 0.01, 0.01);
  const core::TechnologyParams tech;  // 1.2 V nominal, 0.3 V threshold
  std::cout << "voltage-scaling trade-offs at eps = 1% (raw factors: E = "
            << report::format_double(r.energy.total_factor, 3) << ", D = "
            << report::format_double(r.metrics.delay, 3) << "):\n";
  const auto iso_e =
      core::apply_iso_energy(r.energy.total_factor, r.metrics.delay, tech);
  std::cout << "  iso-energy:  lower Vdd to "
            << report::format_double(iso_e.vdd, 3) << " V -> delay factor "
            << report::format_double(iso_e.delay_factor, 3)
            << " (energy budget held)\n";
  const auto iso_d =
      core::apply_iso_delay(r.energy.total_factor, r.metrics.delay, tech);
  std::cout << "  iso-delay:   raise Vdd to "
            << report::format_double(iso_d.vdd, 3) << " V -> energy factor "
            << report::format_double(iso_d.energy_factor, 3)
            << " (performance held)\n";
  return 0;
}
