// Shared benchmark-suite pipeline for the Figure 7/8 reproductions and the
// ablations: generate -> map to the paper's generic max-fanin-3 library ->
// extract the (s, S0, sw0, k, d0) profile.
#pragma once

#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "bench_common.hpp"
#include "core/profile.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "gen/suite.hpp"
#include "report/table.hpp"
#include "synth/mapper.hpp"

namespace enb::bench {

struct ProfiledBenchmark {
  gen::BenchmarkSpec spec;
  core::CircuitProfile profile;
  netlist::CircuitStats mapped_stats;
};

// Profiles the whole standard suite through the analysis layer: generate +
// map in parallel (slot-per-index writes), compile each mapped netlist into
// a shared handle, then submit one profile request per benchmark so the
// Monte-Carlo shards of *all* benchmarks interleave over the pool. Results
// are bit-identical to profiling each circuit alone.
inline std::vector<ProfiledBenchmark> profile_suite(int max_fanin = 3) {
  const std::vector<gen::BenchmarkSpec> specs = gen::standard_suite();
  std::vector<ProfiledBenchmark> out(specs.size());
  std::vector<netlist::Circuit> mapped(specs.size());
  exec::for_each_index(specs.size(), [&](std::size_t i) {
    const netlist::Circuit base = specs[i].build();
    synth::MapResult result = synth::map_to_library(base, max_fanin);
    out[i].spec = specs[i];
    out[i].mapped_stats = result.after;
    mapped[i] = std::move(result.circuit);
  });

  exec::BatchEvaluator batch;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    analysis::AnalysisRequest request;
    request.name = specs[i].name;
    request.circuit = analysis::compile(std::move(mapped[i]));
    analysis::ProfileRequest spec;
    spec.options.activity_pairs =
        static_cast<std::size_t>(scaled(1 << 12, 1 << 6));
    spec.options.sensitivity_exact_max_inputs = smoke_mode() ? 14 : 19;
    request.options = spec;
    batch.submit(std::move(request));
  }
  const std::vector<analysis::AnalysisResult> results = batch.run();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      throw std::runtime_error("profile_suite: job " + results[i].name +
                               " failed: " + results[i].error);
    }
    out[i].profile = *results[i].profile;
  }
  return out;
}

inline void print_profile_table(const std::vector<ProfiledBenchmark>& suite) {
  report::Table table({"benchmark", "family", "inputs", "S0", "depth",
                       "avg_fanin", "sw0", "sensitivity", "s_exact"});
  for (const auto& pb : suite) {
    table.add_row({pb.spec.name, pb.spec.family,
                   std::to_string(pb.profile.num_inputs),
                   report::format_double(pb.profile.size_s0, 5),
                   std::to_string(pb.profile.depth_d0),
                   report::format_double(pb.profile.avg_fanin_k, 3),
                   report::format_double(pb.profile.avg_activity_sw0, 3),
                   report::format_double(pb.profile.sensitivity_s, 3),
                   pb.profile.sensitivity_exact ? "yes" : "sampled"});
  }
  std::cout << "mapped-suite profiles (generic library, the paper's "
               "max-fanin-3 setting):\n"
            << table.to_text() << "\n";
}

}  // namespace enb::bench
