#include "analysis/kinds.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "fault/campaign.hpp"
#include "harden/types.hpp"
#include "util/numeric.hpp"

namespace enb::analysis {

namespace {

using Str = const std::string&;

double number(Str key, Str value) {
  double parsed = 0.0;
  if (!util::parse_double(value, parsed)) {
    throw std::invalid_argument("non-numeric value '" + value +
                                "' for key '" + key + "'");
  }
  return parsed;
}

std::uint64_t count(Str key, Str value) {
  std::uint64_t parsed = 0;
  if (!util::parse_uint64(value, parsed)) {
    throw std::invalid_argument("value for key '" + key +
                                "' must be a non-negative integer, got '" +
                                value + "'");
  }
  return parsed;
}

template <typename T>
T require(std::optional<T> parsed, const char* message) {
  if (!parsed.has_value()) throw std::invalid_argument(message);
  return *parsed;
}

// Parses `value` into `field` by the field's type: doubles are numbers,
// bools 0|1 flags, the lane width one of its four widths, the harden axes
// their names, and every other field a non-negative count that fits the
// field (a wider value is rejected, never wrapped).
template <typename T>
void parse_into(T& field, Str key, Str value) {
  if constexpr (std::is_same_v<T, double>) {
    field = number(key, value);
  } else if constexpr (std::is_same_v<T, bool>) {
    const std::uint64_t parsed = count(key, value);
    if (parsed > 1) throw std::invalid_argument(key + " must be 0 or 1");
    field = parsed != 0;
  } else if constexpr (std::is_same_v<T, fault::LaneWidth>) {
    field = require(fault::parse_lane_width(count(key, value)),
                    "lanes must be 64, 128, 256, or 512");
  } else if constexpr (std::is_same_v<T, std::optional<harden::Style>>) {
    field = require(harden::parse_style(value),
                    "style must be tmr, dwc, or selective");
  } else if constexpr (std::is_same_v<T,
                                      std::optional<harden::Granularity>>) {
    field = require(harden::parse_granularity(value),
                    "granularity must be gate, cone, or output");
  } else {
    static_assert(std::is_integral_v<T>);
    const std::uint64_t parsed = count(key, value);
    constexpr auto max =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (parsed > max) {
      throw std::invalid_argument("value for key '" + key +
                                  "' must be at most " + std::to_string(max) +
                                  ", got '" + value + "'");
    }
    field = static_cast<T>(parsed);
  }
}

// A key that parses into one field of the Request alternative; `Field` is a
// captureless lambda mapping the request to that field.
template <typename Request, typename Field>
KindKey key(std::string_view name, Field) {
  return {name, [](RequestOptions& options, Str k, Str v) {
            parse_into(Field{}(std::get<Request>(options)), k, v);
          }};
}

// The campaign inside a fault-campaign or harden request.
fault::CampaignOptions& campaign(FaultCampaignRequest& r) { return r.options; }
fault::CampaignOptions& campaign(HardenRequest& r) {
  return r.options.campaign;
}

// The campaign keys fault-campaign and harden share (budget= is the
// pattern count), appended to the kind's own `keys`.
template <typename Request>
std::vector<KindKey> campaign_keys(std::vector<KindKey> keys = {}) {
  keys.insert(
      keys.end(),
      {key<Request>("budget",
                    [](Request& r) -> auto& { return campaign(r).patterns; }),
       key<Request>("seed",
                    [](Request& r) -> auto& { return campaign(r).seed; }),
       {"mode",
        [](RequestOptions& options, Str, Str v) {
          if (v != "random" && v != "exhaustive") {
            throw std::invalid_argument(
                "mode must be 'random' or 'exhaustive', got '" + v + "'");
          }
          campaign(std::get<Request>(options)).exhaustive = v == "exhaustive";
        }},
       key<Request>("drop",
                    [](Request& r) -> auto& { return campaign(r).drop; }),
       key<Request>("lanes",
                    [](Request& r) -> auto& { return campaign(r).lanes; }),
       key<Request>("sample",
                    [](Request& r) -> auto& { return campaign(r).sample; }),
       key<Request>("prune", [](Request& r) -> auto& {
         return campaign(r).prune_untestable;
       })});
  return keys;
}

// Appends the shared numeric keys a kind does not use itself: accepted
// and validated, then ignored.
std::vector<KindKey> with_shared_keys(std::vector<KindKey> keys) {
  const KindKey shared[] = {
      {"eps", [](RequestOptions&, Str k, Str v) { (void)number(k, v); }},
      {"delta", [](RequestOptions&, Str k, Str v) { (void)number(k, v); }},
      {"leakage", [](RequestOptions&, Str k, Str v) { (void)number(k, v); }},
      {"budget", [](RequestOptions&, Str k, Str v) { (void)count(k, v); }},
      {"seed", [](RequestOptions&, Str k, Str v) { (void)count(k, v); }},
  };
  for (const KindKey& s : shared) {
    if (std::none_of(keys.begin(), keys.end(),
                     [&](const KindKey& k) { return k.name == s.name; })) {
      keys.push_back(s);
    }
  }
  return keys;
}

// Row i is the row of AnalysisKind i, whose `defaults` hold variant
// alternative i (KindTable.RowsFollowTheAnalysisKindOrder pins the order).
std::vector<KindInfo> build_table() {
  using Rel = ReliabilityRequest;
  using Worst = WorstCaseRequest;
  using Act = ActivityRequest;
  using Sens = SensitivityRequest;
  using Bound = EnergyBoundRequest;
  using Prof = ProfileRequest;
  using Hard = HardenRequest;
  std::vector<KindInfo> rows = {
      {"reliability", "delta_hat", Rel{},
       {key<Rel>("eps", [](Rel& r) -> auto& { return r.epsilon; }),
        key<Rel>("budget", [](Rel& r) -> auto& { return r.options.trials; }),
        key<Rel>("seed", [](Rel& r) -> auto& { return r.options.seed; })}},
      {"worst-case", "worst_delta_hat", Worst{},
       {key<Worst>("eps", [](Worst& r) -> auto& { return r.epsilon; }),
        key<Worst>("budget", [](Worst& r) -> auto& {
          return r.options.trials_per_input;
        }),
        key<Worst>("seed", [](Worst& r) -> auto& { return r.options.seed; })}},
      {"activity", "avg_gate_toggle_rate", Act{},
       {key<Act>("budget",
                 [](Act& r) -> auto& { return r.options.sample_pairs; }),
        key<Act>("seed", [](Act& r) -> auto& { return r.options.seed; })}},
      {"sensitivity", "sensitivity", Sens{},
       {key<Sens>("budget",
                  [](Sens& r) -> auto& { return r.options.sample_words; }),
        key<Sens>("seed", [](Sens& r) -> auto& { return r.options.seed; })}},
      {"energy-bound", "total_factor", Bound{},
       {key<Bound>("eps", [](Bound& r) -> auto& { return r.epsilon; }),
        key<Bound>("delta", [](Bound& r) -> auto& { return r.delta; }),
        key<Bound>("leakage", [](Bound& r) -> auto& {
          return r.energy.leakage_fraction;
        }),
        key<Bound>("budget", [](Bound& r) -> auto& {
          return r.profile.activity_pairs;
        }),
        key<Bound>("seed", [](Bound& r) -> auto& { return r.profile.seed; })}},
      {"profile", "size_s0", Prof{},
       {key<Prof>("budget",
                  [](Prof& r) -> auto& { return r.options.activity_pairs; }),
        key<Prof>("seed", [](Prof& r) -> auto& { return r.options.seed; })}},
      {"fault-campaign", "coverage", FaultCampaignRequest{},
       campaign_keys<FaultCampaignRequest>()},
      // Structural linting takes no tuning keys.
      {"lint", "errors", LintRequest{}, {}},
      // The comparison reference rides golden=; budget= is the signature
      // word count.
      {"cec", "equivalent", CecRequest{},
       {key<CecRequest>("seed",
                        [](CecRequest& r) -> auto& { return r.options.seed; }),
        key<CecRequest>("budget", [](CecRequest& r) -> auto& {
          return r.options.signature_words;
        })}},
      // The campaign keys tune the grading campaign every candidate shares;
      // style/granularity/top_k pin sweep axes (absent = the full axis).
      {"harden", "frontier_size", Hard{},
       campaign_keys<Hard>({
           key<Hard>("eps", [](Hard& r) -> auto& { return r.options.epsilon; }),
           key<Hard>("delta", [](Hard& r) -> auto& { return r.options.delta; }),
           key<Hard>("leakage", [](Hard& r) -> auto& {
             return r.options.leakage_fraction;
           }),
           key<Hard>("style", [](Hard& r) -> auto& { return r.options.style; }),
           key<Hard>("granularity",
                     [](Hard& r) -> auto& { return r.options.granularity; }),
           key<Hard>("top_k", [](Hard& r) -> auto& { return r.options.top_k; }),
       })},
  };
  for (KindInfo& row : rows) row.keys = with_shared_keys(std::move(row.keys));
  return rows;
}

const std::vector<KindInfo>& table() {
  static const std::vector<KindInfo> rows = build_table();
  return rows;
}

}  // namespace

const KindInfo& kind_info(AnalysisKind kind) {
  return table().at(static_cast<std::size_t>(kind));
}

const char* headline_metric(AnalysisKind kind) {
  return kind_info(kind).headline;
}

std::optional<std::pair<const char*, double>> headline(
    const AnalysisResult& result) {
  const char* metric = headline_metric(result.kind);
  const std::optional<double> value = result.metric(metric);
  if (!result.ok || !value.has_value()) return std::nullopt;
  return std::make_pair(metric, *value);
}

void apply_key(RequestOptions& options, const std::string& key,
               const std::string& value) {
  const KindInfo& row = kind_info(static_cast<AnalysisKind>(options.index()));
  for (const KindKey& k : row.keys) {
    if (k.name == key) return k.apply(options, key, value);
  }
  std::string owners;
  for (const KindInfo& other : table()) {
    for (const KindKey& k : other.keys) {
      if (k.name == key) {
        owners += (owners.empty() ? "kind=" : ", kind=") +
                  std::string(other.name);
      }
    }
  }
  if (owners.empty()) throw std::invalid_argument("unknown key '" + key + "'");
  throw std::invalid_argument("key '" + key + "' does not apply to kind=" +
                              row.name + " (only " + owners + ")");
}

const char* to_string(AnalysisKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < table().size() ? table()[index].name : "unknown";
}

std::optional<AnalysisKind> parse_analysis_kind(std::string_view name) {
  std::string canonical(name);
  std::replace(canonical.begin(), canonical.end(), '_', '-');
  for (std::size_t i = 0; i < table().size(); ++i) {
    if (canonical == table()[i].name) return static_cast<AnalysisKind>(i);
  }
  return std::nullopt;
}

}  // namespace enb::analysis
