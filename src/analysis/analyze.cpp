#include "analysis/analyze.hpp"

#include <stdexcept>
#include <utility>

#include "harden/pareto.hpp"

namespace enb::analysis {

const core::CircuitProfile& extract_profile(const CompiledCircuit& circuit,
                                            const core::ProfileOptions& options,
                                            exec::Parallelism how) {
  return circuit.profile(options, how);
}

core::BoundReport analyze(const CompiledCircuit& circuit, double epsilon,
                          double delta, const core::EnergyModelOptions& energy,
                          const core::ProfileOptions& profile_options,
                          exec::Parallelism how) {
  return core::analyze(circuit.profile(profile_options, how), epsilon, delta,
                       energy);
}

AnalysisResult evaluate(const AnalysisRequest& request, exec::Parallelism how) {
  AnalysisResult result;
  result.name = request.name;
  result.kind = request.kind();
  const auto golden = [&request]() -> const netlist::Circuit& {
    return request.golden.has_value() ? request.golden->circuit()
                                      : request.circuit.circuit();
  };
  try {
    ResultPayload payload = std::visit(
        [&](const auto& spec) -> ResultPayload {
          using Spec = std::decay_t<decltype(spec)>;
          if constexpr (std::is_same_v<Spec, ReliabilityRequest>) {
            return sim::estimate_reliability_vs(request.circuit.circuit(),
                                                golden(), spec.epsilon,
                                                spec.options, how);
          } else if constexpr (std::is_same_v<Spec, WorstCaseRequest>) {
            return sim::estimate_worst_case_reliability(
                request.circuit.circuit(), golden(), spec.epsilon, spec.options,
                how);
          } else if constexpr (std::is_same_v<Spec, ActivityRequest>) {
            return sim::estimate_activity(request.circuit.circuit(),
                                          spec.options, how);
          } else if constexpr (std::is_same_v<Spec, SensitivityRequest>) {
            return sim::compute_sensitivity(request.circuit.circuit(),
                                            spec.options, how);
          } else if constexpr (std::is_same_v<Spec, EnergyBoundRequest>) {
            if (spec.profile_override.has_value()) {
              return core::analyze(*spec.profile_override, spec.epsilon,
                                   spec.delta, spec.energy);
            }
            const core::CircuitProfile& profile =
                request.circuit.profile(spec.profile, how);
            result.profile = profile;
            return core::analyze(profile, spec.epsilon, spec.delta,
                                 spec.energy);
          } else if constexpr (std::is_same_v<Spec, ProfileRequest>) {
            return request.circuit.profile(spec.options, how);
          } else if constexpr (std::is_same_v<Spec, FaultCampaignRequest>) {
            return fault::run_campaign(request.circuit.circuit(), &golden(),
                                       spec.options, how);
          } else if constexpr (std::is_same_v<Spec, LintRequest>) {
            return lint_circuit(request.circuit.circuit(), spec.options);
          } else if constexpr (std::is_same_v<Spec, CecRequest>) {
            if (!request.golden.has_value()) {
              throw std::invalid_argument(
                  "cec requires a golden circuit to compare against");
            }
            return check_equivalence(request.circuit.circuit(),
                                     request.golden->circuit(), spec.options);
          } else {
            static_assert(std::is_same_v<Spec, HardenRequest>);
            return harden::pareto_sweep(request.circuit, spec.options, how);
          }
        },
        request.options);
    set_payload(result, std::move(payload));
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.profile.reset();
  }
  return result;
}

}  // namespace enb::analysis
