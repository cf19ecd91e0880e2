#include "core/profile.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "netlist/stats.hpp"
#include "sim/activity.hpp"
#include "sim/exhaustive.hpp"
#include "sim/sensitivity.hpp"

namespace enb::core {

exec::ShardedJob<ProfileExtraction> profile_job(const netlist::Circuit& circuit,
                                             const ProfileOptions& options) {
  if (circuit.gate_count() == 0) {
    throw std::invalid_argument(
        "extract_profile: circuit has no gates to profile");
  }
  if (options.prefer_exact_activity &&
      options.exact_activity_max_inputs > sim::kMaxExhaustiveInputs) {
    throw std::invalid_argument(
        "extract_profile: exact_activity_max_inputs exceeds the exhaustive "
        "limit of " + std::to_string(sim::kMaxExhaustiveInputs) + " inputs");
  }
  sim::ActivityOptions activity_options;
  activity_options.sample_pairs = options.activity_pairs;
  activity_options.seed = options.seed;
  sim::SensitivityOptions sens_options;
  sens_options.max_exact_inputs = options.sensitivity_exact_max_inputs;
  sens_options.sample_words = options.sensitivity_sample_words;
  sens_options.seed = options.seed + 1;

  const bool exact = options.prefer_exact_activity &&
                     static_cast<int>(circuit.num_inputs()) <=
                         options.exact_activity_max_inputs;
  const exec::ShardedJob<sim::ActivityResult> activity =
      exact ? sim::exact_activity_job(circuit)
            : sim::activity_job(circuit, activity_options);
  const exec::ShardedJob<sim::SensitivityResult> sensitivity =
      sim::sensitivity_job(circuit, sens_options);

  const std::size_t split = activity.num_shards;
  return {split + sensitivity.num_shards,
          [activity, sensitivity, split](std::size_t i) {
            if (i < split) {
              activity.run_shard(i);
            } else {
              sensitivity.run_shard(i - split);
            }
          },
          [&circuit, activity, sensitivity] {
            const sim::SensitivityResult sens = sensitivity.finish();
            return assemble_profile(circuit, activity.finish(),
                                    std::max(1, sens.sensitivity), sens.exact);
          }};
}

ProfileExtraction assemble_profile(const netlist::Circuit& circuit,
                                   sim::ActivityResult activity,
                                   double sensitivity_s,
                                   bool sensitivity_exact) {
  const netlist::CircuitStats stats = netlist::compute_stats(circuit);
  ProfileExtraction extraction;
  CircuitProfile& p = extraction.profile;
  p.name = circuit.name();
  p.num_inputs = static_cast<int>(stats.num_inputs);
  p.num_outputs = static_cast<int>(stats.num_outputs);
  p.size_s0 = static_cast<double>(stats.num_gates);
  p.depth_d0 = stats.depth;
  p.avg_fanin_k = stats.avg_fanin;
  p.max_fanin = stats.max_fanin;
  p.avg_activity_sw0 = activity.avg_gate_toggle_rate;
  p.sensitivity_s = sensitivity_s;
  p.sensitivity_exact = sensitivity_exact;
  extraction.activity = std::move(activity);
  return extraction;
}

CircuitProfile extract_profile(const netlist::Circuit& circuit,
                               const ProfileOptions& options,
                               exec::Parallelism how) {
  return exec::run(profile_job(circuit, options), how).profile;
}

CircuitProfile make_profile(std::string name, double sensitivity,
                            double size_s0, double sw0, double fanin_k,
                            int num_inputs) {
  if (sensitivity < 1.0 || size_s0 <= 0.0 || fanin_k < 1.0 ||
      num_inputs < 1 || !(sw0 > 0.0 && sw0 < 1.0)) {
    throw std::invalid_argument("make_profile: parameter out of range");
  }
  CircuitProfile p;
  p.name = std::move(name);
  p.num_inputs = num_inputs;
  p.sensitivity_s = sensitivity;
  p.sensitivity_exact = true;
  p.size_s0 = size_s0;
  p.avg_activity_sw0 = sw0;
  p.avg_fanin_k = fanin_k;
  p.max_fanin = static_cast<int>(fanin_k + 0.999);
  return p;
}

}  // namespace enb::core
