#include "harden/pareto.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "harden/derive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace enb::harden {
namespace {

struct HardenMetrics {
  obs::Counter& candidates = obs::Registry::global().counter(
      "harden-candidates-total");
  obs::Histogram& cec_seconds = obs::Registry::global().histogram(
      "harden-cec-seconds");
  obs::Gauge& frontier_size = obs::Registry::global().gauge(
      "harden-frontier-size");
};

HardenMetrics& harden_metrics() {
  static HardenMetrics metrics;
  return metrics;
}

std::string candidate_label(const TransformOptions& config) {
  std::string label = to_string(config.style);
  label += '/';
  label += to_string(config.granularity);
  if (config.style == Style::kSelective) {
    label += "/k" + std::to_string(config.top_k);
  }
  return label;
}

// The profile options of every energy request in a sweep: the cache key the
// base extraction and the derived candidate profiles share.
constexpr core::ProfileOptions kSweepProfile{};

analysis::AnalysisRequest energy_request(const analysis::CompiledCircuit& c,
                                         std::string name,
                                         const SweepOptions& options) {
  analysis::AnalysisRequest request;
  request.name = std::move(name);
  request.circuit = c;
  analysis::EnergyBoundRequest spec;
  spec.epsilon = options.epsilon;
  spec.delta = options.delta;
  spec.energy.leakage_fraction = options.leakage_fraction;
  spec.profile = kSweepProfile;
  request.options = spec;
  return request;
}

analysis::AnalysisRequest campaign_request(const analysis::CompiledCircuit& c,
                                           std::string name,
                                           const SweepOptions& options) {
  analysis::AnalysisRequest request;
  request.name = std::move(name);
  request.circuit = c;
  analysis::FaultCampaignRequest spec;
  spec.options = options.campaign;
  request.options = spec;
  return request;
}

// Unwraps one (energy, campaign) result pair; a failed candidate evaluation
// fails the whole sweep with the offending job named (batch error isolation
// then surfaces it as this request's error).
const core::BoundReport& bound_of(const analysis::AnalysisResult& result) {
  if (!result.ok || result.get<core::BoundReport>() == nullptr) {
    throw std::runtime_error("harden: energy evaluation failed for '" +
                             result.name + "': " + result.error);
  }
  return *result.get<core::BoundReport>();
}

const fault::FaultCampaignResult& campaign_of(
    const analysis::AnalysisResult& result) {
  if (!result.ok || result.get<fault::FaultCampaignResult>() == nullptr) {
    throw std::runtime_error("harden: campaign evaluation failed for '" +
                             result.name + "': " + result.error);
  }
  return *result.get<fault::FaultCampaignResult>();
}

// Non-dominated filter over (energy_factor down, protection up, gates down)
// across equivalent, lint-clean candidates. Exact ties break toward the
// earliest candidate in enumeration order, so the frontier is deterministic
// even when two configs land on identical axes.
void compute_frontier(ParetoResult& result) {
  const std::vector<Candidate>& c = result.candidates;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c[i].equivalent || !c[i].lint_clean) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < c.size() && !dominated; ++j) {
      if (j == i || !c[j].equivalent || !c[j].lint_clean) continue;
      const bool no_worse = c[j].energy_factor <= c[i].energy_factor &&
                            c[j].protection >= c[i].protection &&
                            c[j].gates <= c[i].gates;
      if (!no_worse) continue;
      const bool strictly_better = c[j].energy_factor < c[i].energy_factor ||
                                   c[j].protection > c[i].protection ||
                                   c[j].gates < c[i].gates;
      dominated = strictly_better || j < i;
    }
    if (!dominated) {
      result.candidates[i].on_frontier = true;
      result.frontier.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace

double protection_of(const fault::FaultCampaignResult& campaign,
                     std::size_t primary_outputs) {
  if (campaign.sampled == 0) return 1.0;
  std::uint64_t silent = 0;
  const std::size_t classes = std::min(campaign.first_detect_pattern.size(),
                                       campaign.first_detect_output.size());
  for (std::size_t cls = 0; cls < classes; ++cls) {
    if (campaign.first_detect_pattern[cls] != fault::kNotDetected &&
        campaign.first_detect_output[cls] < primary_outputs) {
      ++silent;
    }
  }
  return static_cast<double>(campaign.sampled - silent) /
         static_cast<double>(campaign.sampled);
}

std::vector<TransformOptions> enumerate_candidates(std::size_t num_outputs,
                                                   const SweepOptions& options) {
  std::vector<Style> styles;
  if (options.style.has_value()) {
    styles.push_back(*options.style);
  } else {
    styles = {Style::kTmr, Style::kDwc, Style::kSelective};
  }
  std::vector<Granularity> granularities;
  if (options.granularity.has_value()) {
    granularities.push_back(*options.granularity);
  } else {
    granularities = {Granularity::kGate, Granularity::kCone,
                     Granularity::kOutput};
  }
  std::vector<std::uint32_t> ladder;
  if (options.top_k > 0) {
    ladder.push_back(options.top_k);
  } else {
    for (std::uint32_t k = 1; k < num_outputs; k *= 2) ladder.push_back(k);
  }
  std::vector<TransformOptions> configs;
  for (const Style style : styles) {
    for (const Granularity granularity : granularities) {
      TransformOptions config;
      config.style = style;
      config.granularity = granularity;
      config.voter = options.voter;
      if (style != Style::kSelective) {
        configs.push_back(config);
        continue;
      }
      for (const std::uint32_t k : ladder) {
        config.top_k = k;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

ParetoResult pareto_sweep(const analysis::CompiledCircuit& base,
                          const SweepOptions& options, exec::Parallelism how) {
  const netlist::Circuit& circuit = base.circuit();
  if (circuit.num_outputs() == 0) {
    throw std::invalid_argument("harden: base circuit has no outputs");
  }
  const obs::Span span("harden-sweep", {}, base.name());
  HardenMetrics& metrics = harden_metrics();

  // Phase 1: the base point — its campaign doubles as the selective-ranking
  // evidence, and its energy bound shares the handle's cached extraction.
  std::vector<analysis::AnalysisRequest> base_requests;
  base_requests.push_back(energy_request(base, "base:energy", options));
  base_requests.push_back(campaign_request(base, "base:campaign", options));
  const std::vector<analysis::AnalysisResult> base_results =
      exec::evaluate_requests(std::move(base_requests), how);
  const core::BoundReport base_bound = bound_of(base_results[0]);
  const fault::FaultCampaignResult base_campaign = campaign_of(base_results[1]);
  const std::vector<std::size_t> ranking =
      rank_output_cones(circuit, base_campaign);

  ParetoResult result;
  {
    Candidate baseline;
    baseline.label = "base";
    baseline.hardened = false;
    baseline.equivalent = true;
    baseline.lint_clean = analysis::lint_errors(circuit).clean();
    baseline.gates = circuit.gate_count();
    baseline.energy_factor = base_bound.energy.total_factor;
    baseline.protection = protection_of(base_campaign, circuit.num_outputs());
    baseline.coverage = base_campaign.coverage;
    result.candidates.push_back(std::move(baseline));
  }

  // Phase 2: build, prove, lint, and grade every candidate. Each config is
  // transformed, proved, linted and compiled by its own pool task, which
  // writes only its own slot; the grading requests, built in config order,
  // then all land in one batch so their shards interleave. A proved
  // candidate's profile is derived from the base extraction (phase 1 cached
  // it on the handle) and stored in its handle before the batch, so its
  // energy bound is a cache hit instead of a fresh extraction.
  const core::ProfileExtraction& base_extraction =
      base.extraction(kSweepProfile, how);
  const BaseIndex base_index(circuit);
  const std::vector<TransformOptions> configs =
      enumerate_candidates(circuit.num_outputs(), options);
  metrics.candidates.add(configs.size() + 1);

  struct Prepared {
    Candidate candidate;
    analysis::CompiledCircuit handle;
    std::size_t base_outputs = 0;
    bool refuted = false;
    std::size_t lint_errors = 0;
  };
  std::vector<Prepared> prepared(configs.size());
  exec::for_each_index(
      configs.size(),
      [&](std::size_t i) {
        const TransformOptions& config = configs[i];
        HardenedCircuit variant = harden_transform(circuit, config, ranking);
        Prepared& slot = prepared[i];
        Candidate& candidate = slot.candidate;
        candidate.label = candidate_label(config);
        candidate.hardened = true;
        candidate.style = config.style;
        candidate.granularity = config.granularity;
        candidate.top_k = config.top_k;
        candidate.gates = variant.circuit.gate_count();
        candidate.voter_gates = variant.voter_gates;
        candidate.check_outputs = variant.check_outputs;
        slot.base_outputs = variant.base_outputs;

        {
          const obs::Span cec_span("harden-cec", span.handle(),
                                   candidate.label);
          const auto start = std::chrono::steady_clock::now();
          const analysis::CecResult proof =
              verify_hardened(circuit, variant, options.cec);
          metrics.cec_seconds.observe(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());
          candidate.equivalent = proof.equivalent;
          slot.refuted = !proof.equivalent && !proof.inconclusive;
        }
        {
          const obs::Span lint_span("harden-lint", span.handle(),
                                    candidate.label);
          const analysis::LintReport lint = lint_hardened(variant);
          candidate.lint_clean = lint.clean();
          slot.lint_errors = lint.errors();
        }

        std::optional<core::ProfileExtraction> derived;
        if (candidate.equivalent) {
          derived = derive_profile(base_index, base_extraction, variant);
        }
        slot.handle = analysis::compile(std::move(variant.circuit));
        if (derived.has_value()) {
          slot.handle.store_profile(kSweepProfile, std::move(*derived));
        }
      },
      how);

  std::vector<analysis::AnalysisRequest> requests;
  requests.reserve(configs.size() * 2);
  for (Prepared& slot : prepared) {
    const std::string& label = slot.candidate.label;
    requests.push_back(energy_request(slot.handle, label + ":energy", options));
    requests.push_back(
        campaign_request(slot.handle, label + ":campaign", options));
    if (slot.refuted) result.refuted += 1;
    result.lint_errors += slot.lint_errors;
    result.candidates.push_back(std::move(slot.candidate));
  }

  const std::vector<analysis::AnalysisResult> graded =
      exec::evaluate_requests(std::move(requests), how);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Candidate& candidate = result.candidates[i + 1];
    candidate.energy_factor = bound_of(graded[2 * i]).energy.total_factor;
    const fault::FaultCampaignResult& campaign = campaign_of(graded[2 * i + 1]);
    candidate.protection =
        protection_of(campaign, prepared[i].base_outputs);
    candidate.coverage = campaign.coverage;
  }

  compute_frontier(result);
  metrics.frontier_size.set(static_cast<double>(result.frontier.size()));
  return result;
}

HardenedCircuit rebuild_candidate(const netlist::Circuit& base,
                                  const SweepOptions& options,
                                  const Candidate& candidate,
                                  exec::Parallelism how) {
  if (!candidate.hardened) {
    throw std::invalid_argument(
        "harden: the baseline candidate has no transform to rebuild");
  }
  TransformOptions config;
  config.style = candidate.style;
  config.granularity = candidate.granularity;
  config.top_k = candidate.top_k;
  config.voter = options.voter;
  std::vector<std::size_t> ranking;
  if (config.style == Style::kSelective) {
    const fault::FaultCampaignResult campaign =
        fault::run_campaign(base, nullptr, options.campaign, how);
    ranking = rank_output_cones(base, campaign);
  }
  return harden_transform(base, config, ranking);
}

}  // namespace enb::harden
