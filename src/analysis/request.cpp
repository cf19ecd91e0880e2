#include "analysis/request.hpp"

#include <ios>
#include <sstream>

namespace enb::analysis {

namespace {

// The variant orders must mirror AnalysisKind (kind() and kind_of rely on
// the indices).
static_assert(std::is_same_v<std::variant_alternative_t<0, RequestOptions>,
                             ReliabilityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<1, RequestOptions>,
                             WorstCaseRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<2, RequestOptions>,
                             ActivityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<3, RequestOptions>,
                             SensitivityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<4, RequestOptions>,
                             EnergyBoundRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<5, RequestOptions>,
                             ProfileRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<6, RequestOptions>,
                             FaultCampaignRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<7, RequestOptions>,
                             LintRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<8, RequestOptions>,
                             CecRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<9, RequestOptions>,
                             HardenRequest>);
static_assert(std::variant_size_v<RequestOptions> + 1 ==
              std::variant_size_v<ResultPayload>);
static_assert(std::is_same_v<
              std::variant_alternative_t<std::variant_size_v<ResultPayload> - 1,
                                         ResultPayload>,
              harden::ParetoResult>);

using Metrics = std::vector<std::pair<std::string, double>>;

void push(Metrics& m, const char* name, double value) {
  m.emplace_back(name, value);
}

void push(Metrics& m, const std::string& name, double value) {
  m.emplace_back(name, value);
}

Metrics flatten(const sim::ReliabilityResult& r) {
  Metrics m;
  push(m, "delta_hat", r.delta_hat);
  push(m, "ci_low", r.ci_low);
  push(m, "ci_high", r.ci_high);
  push(m, "failures", static_cast<double>(r.failures));
  push(m, "trials", static_cast<double>(r.trials));
  push(m, "requested_trials", static_cast<double>(r.requested_trials));
  return m;
}

Metrics flatten(const sim::WorstCaseResult& w) {
  Metrics m;
  push(m, "worst_delta_hat", w.worst.delta_hat);
  push(m, "worst_ci_low", w.worst.ci_low);
  push(m, "worst_ci_high", w.worst.ci_high);
  push(m, "worst_failures", static_cast<double>(w.worst.failures));
  push(m, "trials_per_input", static_cast<double>(w.worst.trials));
  push(m, "requested_trials_per_input",
       static_cast<double>(w.worst.requested_trials));
  push(m, "average_delta", w.average_delta);
  return m;
}

Metrics flatten(const sim::ActivityResult& a) {
  Metrics m;
  push(m, "avg_gate_toggle_rate", a.avg_gate_toggle_rate);
  push(m, "avg_gate_one_probability", a.avg_gate_one_probability);
  push(m, "sample_pairs", static_cast<double>(a.sample_pairs));
  return m;
}

Metrics flatten(const sim::SensitivityResult& s) {
  Metrics m;
  push(m, "sensitivity", static_cast<double>(s.sensitivity));
  push(m, "total_influence", s.total_influence);
  push(m, "assignments", static_cast<double>(s.assignments));
  push(m, "exact", s.exact ? 1.0 : 0.0);
  return m;
}

Metrics flatten(const core::BoundReport& b) {
  Metrics m;
  push(m, "eps", b.epsilon);
  push(m, "delta", b.delta);
  push(m, "sw_noisy", b.sw_noisy);
  push(m, "redundancy_gates", b.redundancy_gates);
  push(m, "size_factor", b.size_factor);
  push(m, "switching_factor", b.energy.switching_factor);
  push(m, "leakage_factor", b.energy.leakage_factor);
  push(m, "total_factor", b.energy.total_factor);
  push(m, "leakage_ratio", b.leakage_ratio);
  push(m, "delay_factor", b.metrics.delay);
  push(m, "edp_factor", b.metrics.edp);
  push(m, "avg_power_factor", b.metrics.avg_power);
  push(m, "depth_feasible", b.depth_feasible ? 1.0 : 0.0);
  return m;
}

Metrics flatten(const fault::FaultCampaignResult& f) {
  Metrics m;
  push(m, "nets", static_cast<double>(f.nets));
  push(m, "sites", static_cast<double>(f.sites));
  push(m, "classes", static_cast<double>(f.classes));
  push(m, "sampled", static_cast<double>(f.sampled));
  push(m, "detected", static_cast<double>(f.detected));
  push(m, "coverage", f.coverage);
  push(m, "coverage_ci_low", f.coverage_ci_low);
  push(m, "coverage_ci_high", f.coverage_ci_high);
  push(m, "masked_fraction", f.masked_fraction);
  push(m, "patterns", static_cast<double>(f.patterns));
  push(m, "sim_passes", static_cast<double>(f.sim_passes));
  push(m, "detect_outputs", static_cast<double>(f.detect_outputs));
  push(m, "gates", static_cast<double>(f.gates));
  push(m, "golden_gates", static_cast<double>(f.golden_gates));
  push(m, "gate_overhead", f.gate_overhead);
  push(m, "overhead_per_masked", f.overhead_per_masked);
  return m;
}

Metrics flatten(const CecResult& c) {
  Metrics m;
  push(m, "equivalent", c.equivalent ? 1.0 : 0.0);
  push(m, "inconclusive", c.inconclusive ? 1.0 : 0.0);
  push(m, "outputs", static_cast<double>(c.outputs));
  push(m, "refuted", static_cast<double>(c.refuted));
  push(m, "proved_structural", static_cast<double>(c.proved_structural));
  push(m, "proved_bdd", static_cast<double>(c.proved_bdd));
  push(m, "signature_words", static_cast<double>(c.signature_words));
  return m;
}

Metrics flatten(const harden::ParetoResult& h) {
  Metrics m;
  push(m, "candidates", static_cast<double>(h.candidates.size()));
  push(m, "frontier_size", static_cast<double>(h.frontier.size()));
  push(m, "refuted", static_cast<double>(h.refuted));
  push(m, "lint_errors", static_cast<double>(h.lint_errors));
  // One row group per frontier point, in frontier (enumeration) order; the
  // row count is data-dependent like a sweep's, and deterministic because
  // the frontier is.
  for (std::size_t i = 0; i < h.frontier.size(); ++i) {
    const harden::Candidate& c = h.candidates[h.frontier[i]];
    const std::string prefix = "frontier" + std::to_string(i);
    push(m, prefix + "_index", static_cast<double>(h.frontier[i]));
    push(m, prefix + "_gates", static_cast<double>(c.gates));
    push(m, prefix + "_energy_factor", c.energy_factor);
    push(m, prefix + "_protection", c.protection);
    push(m, prefix + "_coverage", c.coverage);
  }
  return m;
}

Metrics flatten(const LintReport& l) {
  Metrics m;
  push(m, "errors", static_cast<double>(l.errors()));
  push(m, "warnings", static_cast<double>(l.warnings()));
  push(m, "findings", static_cast<double>(l.diagnostics.size()));
  push(m, "nodes", static_cast<double>(l.nodes));
  return m;
}

Metrics flatten(const core::CircuitProfile& p) {
  Metrics m;
  push(m, "num_inputs", p.num_inputs);
  push(m, "num_outputs", p.num_outputs);
  push(m, "size_s0", p.size_s0);
  push(m, "depth_d0", p.depth_d0);
  push(m, "avg_fanin_k", p.avg_fanin_k);
  push(m, "max_fanin", p.max_fanin);
  push(m, "avg_activity_sw0", p.avg_activity_sw0);
  push(m, "sensitivity_s", p.sensitivity_s);
  push(m, "sensitivity_exact", p.sensitivity_exact ? 1.0 : 0.0);
  return m;
}

// ---- canonical spec ------------------------------------------------------
//
// One writer per option struct; every value-relevant field appears, in a
// fixed order, so the string is a complete value identity for the request's
// options. Doubles go out as hexfloat (exact round trip), bools as 0/1.

class SpecWriter {
 public:
  SpecWriter(const char* kind) { out_ << kind; }

  SpecWriter& field(const char* name, double value) {
    out_ << ' ' << name << '=' << std::hexfloat << value << std::defaultfloat;
    return *this;
  }
  SpecWriter& field(const char* name, bool value) {
    out_ << ' ' << name << '=' << (value ? 1 : 0);
    return *this;
  }
  template <typename Int>
  SpecWriter& field(const char* name, Int value) {
    out_ << ' ' << name << '=' << value;
    return *this;
  }
  SpecWriter& text(const char* name, const std::string& value) {
    // Length prefix keeps arbitrary text (circuit names) unambiguous.
    out_ << ' ' << name << '=' << value.size() << ':' << value;
    return *this;
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

// drop and sample are value-relevant (sim_passes and the simulated set
// change). Shared by fault-campaign and harden, whose grading campaign is
// spelled the same way.
SpecWriter& write_campaign_options(SpecWriter& w,
                                   const fault::CampaignOptions& c) {
  return w.field("patterns", c.patterns)
      .field("exhaustive", c.exhaustive)
      .field("seed", c.seed)
      .field("shard_patterns", c.shard_patterns)
      .field("bundle_width", c.bundle_width)
      .field("collapse", c.collapse)
      .field("drop", c.drop)
      .field("sample", c.sample)
      .field("prune", c.prune_untestable);
}

SpecWriter& write_profile_options(SpecWriter& w,
                                  const core::ProfileOptions& p) {
  return w.field("activity_pairs", p.activity_pairs)
      .field("prefer_exact_activity", p.prefer_exact_activity)
      .field("exact_activity_max_inputs", p.exact_activity_max_inputs)
      .field("sensitivity_exact_max_inputs", p.sensitivity_exact_max_inputs)
      .field("sensitivity_sample_words", p.sensitivity_sample_words)
      .field("profile_seed", p.seed);
}

std::string spec_of(const ReliabilityRequest& r) {
  return SpecWriter("reliability")
      .field("eps", r.epsilon)
      .field("trials", r.options.trials)
      .field("seed", r.options.seed)
      .field("p1", r.options.input_one_probability)
      .field("shard_passes", r.options.shard_passes)
      .str();
}

std::string spec_of(const WorstCaseRequest& r) {
  return SpecWriter("worst-case")
      .field("eps", r.epsilon)
      .field("num_inputs", r.options.num_inputs)
      .field("trials_per_input", r.options.trials_per_input)
      .field("seed", r.options.seed)
      .str();
}

std::string spec_of(const ActivityRequest& r) {
  return SpecWriter("activity")
      .field("sample_pairs", r.options.sample_pairs)
      .field("seed", r.options.seed)
      .field("p1", r.options.input_one_probability)
      .field("shard_pairs", r.options.shard_pairs)
      .str();
}

std::string spec_of(const SensitivityRequest& r) {
  return SpecWriter("sensitivity")
      .field("max_exact_inputs", r.options.max_exact_inputs)
      .field("sample_words", r.options.sample_words)
      .field("seed", r.options.seed)
      .field("shard_words", r.options.shard_words)
      .str();
}

std::string spec_of(const EnergyBoundRequest& r) {
  SpecWriter w("energy-bound");
  w.field("eps", r.epsilon)
      .field("delta", r.delta)
      .field("leakage_fraction", r.energy.leakage_fraction)
      .field("couple_leakage_to_delay", r.energy.couple_leakage_to_delay);
  write_profile_options(w, r.profile);
  if (r.profile_override.has_value()) {
    const core::CircuitProfile& p = *r.profile_override;
    w.text("override_name", p.name)
        .field("override_inputs", p.num_inputs)
        .field("override_outputs", p.num_outputs)
        .field("override_s0", p.size_s0)
        .field("override_d0", p.depth_d0)
        .field("override_k", p.avg_fanin_k)
        .field("override_max_fanin", p.max_fanin)
        .field("override_sw0", p.avg_activity_sw0)
        .field("override_s", p.sensitivity_s)
        .field("override_exact", p.sensitivity_exact);
  }
  return w.str();
}

std::string spec_of(const ProfileRequest& r) {
  SpecWriter w("profile");
  write_profile_options(w, r.options);
  return w.str();
}

std::string spec_of(const FaultCampaignRequest& r) {
  SpecWriter w("fault-campaign");
  write_campaign_options(w, r.options);
  return w.str();
}

std::string spec_of(const LintRequest& r) {
  return SpecWriter("lint")
      .field("exhaustive_cap", r.options.exhaustive_cap)
      .field("allow_voter_replicas", r.options.allow_voter_replicas)
      .str();
}

std::string spec_of(const CecRequest& r) {
  // Both circuit fingerprints are part of the serve cache key (the second
  // circuit is the request's golden handle); the spec covers the knobs.
  return SpecWriter("cec")
      .field("seed", r.options.seed)
      .field("signature_words", r.options.signature_words)
      .field("bdd_node_limit", r.options.bdd_node_limit)
      .str();
}

std::string spec_of(const HardenRequest& r) {
  // Everything — sweep restriction, voter style, grading campaign, CEC
  // knobs, and the energy operating point — is value-relevant.
  const harden::SweepOptions& o = r.options;
  SpecWriter w("harden");
  w.text("style",
         o.style.has_value() ? std::string(harden::to_string(*o.style))
                             : std::string("all"))
      .text("granularity",
            o.granularity.has_value()
                ? std::string(harden::to_string(*o.granularity))
                : std::string("all"))
      .field("top_k", o.top_k)
      .field("voter", static_cast<int>(o.voter))
      .field("eps", o.epsilon)
      .field("delta", o.delta)
      .field("leakage_fraction", o.leakage_fraction);
  write_campaign_options(w, o.campaign)
      .field("cec_seed", o.cec.seed)
      .field("cec_signature_words", o.cec.signature_words)
      .field("cec_bdd_node_limit", o.cec.bdd_node_limit);
  return w.str();
}

}  // namespace

std::string canonical_spec(const RequestOptions& options) {
  return std::visit([](const auto& spec) { return spec_of(spec); }, options);
}

std::optional<double> AnalysisResult::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, double>> flatten_metrics(
    const ResultPayload& payload) {
  return std::visit(
      [](const auto& value) -> Metrics {
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::monostate>) {
          return {};
        } else {
          return flatten(value);
        }
      },
      payload);
}

void set_payload(AnalysisResult& result, ResultPayload payload) {
  result.metrics = flatten_metrics(payload);
  if (const auto* p = std::get_if<core::CircuitProfile>(&payload)) {
    result.profile = *p;
  }
  result.payload = std::move(payload);
}

AnalysisResult make_result(std::string name, ResultPayload payload) {
  AnalysisResult result;
  result.name = std::move(name);
  // Payload alternatives follow AnalysisKind shifted by the monostate slot.
  result.kind = static_cast<AnalysisKind>(payload.index() - 1);
  result.ok = true;
  set_payload(result, std::move(payload));
  return result;
}

}  // namespace enb::analysis
