// The benchmark's workloads. Each fills `report`: end-to-end metrics when
// options.trace is off, the per-layer table when it is on.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_fault_nodrop(const Options& options, Report& report);
void run_harden_sweep(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);

}  // namespace perfbench
