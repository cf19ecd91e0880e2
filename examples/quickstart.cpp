// Quickstart: the full Section 6 flow on one circuit in ~40 lines.
//   1. generate a 16-bit ripple-carry adder,
//   2. map it onto the paper's generic max-fanin-3 library,
//   3. extract the (s, S0, sw0, k) profile,
//   4. evaluate every bound of the paper at (eps, delta) = (1%, 1%).
#include <iostream>

#include "core/analyzer.hpp"
#include "gen/adders.hpp"
#include "report/table.hpp"
#include "synth/mapper.hpp"

int main() {
  using namespace enb;

  const netlist::Circuit adder = gen::ripple_carry_adder(16);
  const synth::MapResult mapped = synth::map_to_library(adder, 3);
  std::cout << "mapped " << adder.name() << ": " << mapped.before.num_gates
            << " -> " << mapped.after.num_gates << " gates, depth "
            << mapped.after.depth << ", max fanin " << mapped.after.max_fanin
            << " (equivalence verified)\n\n";

  const core::CircuitProfile profile = core::extract_profile(mapped.circuit);
  std::cout << "profile: S0 = " << profile.size_s0
            << ", depth = " << profile.depth_d0
            << ", avg fanin k = " << profile.avg_fanin_k
            << ", sw0 = " << report::format_double(profile.avg_activity_sw0, 3)
            << ", sensitivity s " << (profile.sensitivity_exact ? "=" : ">=")
            << " " << profile.sensitivity_s << "\n\n";

  const double eps = 0.01;    // each gate fails with probability 1%
  const double delta = 0.01;  // the output must be right 99% of the time
  const core::BoundReport r = core::analyze(profile, eps, delta);

  std::cout << "bounds at (eps, delta) = (" << eps << ", " << delta << "):\n";
  std::cout << "  Theorem 1  per-gate activity rises from "
            << report::format_double(profile.avg_activity_sw0, 3) << " to "
            << report::format_double(r.sw_noisy, 3) << "\n";
  std::cout << "  Theorem 2  at least "
            << report::format_double(r.redundancy_gates, 3)
            << " extra gates (size factor "
            << report::format_double(r.size_factor, 4) << ")\n";
  std::cout << "  Theorem 3  leakage/switching ratio scales by "
            << report::format_double(r.leakage_ratio, 4) << "\n";
  std::cout << "  Theorem 4  delay factor at least "
            << report::format_double(r.metrics.delay, 4) << "\n";
  std::cout << "  Corollary 2 + 50% leakage: total energy at least "
            << report::format_double(r.energy.total_factor, 4)
            << "x the error-free design\n";
  std::cout << "  derived    EDP >= "
            << report::format_double(r.metrics.edp, 4) << "x, average power "
            << report::format_double(r.metrics.avg_power, 4) << "x\n";
  return 0;
}
