// The analysis-kind table: one row per AnalysisKind holding what every
// front end needs to know about a kind — its name, its headline metric, and
// the manifest keys it accepts, each with the parser and validation that
// write the value straight into the kind's RequestOptions alternative.
//
// to_string / parse_analysis_kind, the manifest parser
// (exec::parse_manifest_requests), the serve `analyze` verb, the CLI
// summary tables and the faultsim/harden subcommands all read this table;
// none of them restates a kind's name, keys or headline.
//
// Key vocabulary. kind=, circuit= and golden= (and the job name) belong to
// the request rather than to a kind; the front ends handle them. Every kind
// accepts eps=, delta=, leakage= (numbers) and budget=, seed= (counts): a
// kind with no use for one still validates the value, then ignores it. The
// campaign keys mode=, drop=, lanes=, sample=, prune= belong to
// fault-campaign and harden (one shared applier); style=, granularity=,
// top_k= to harden alone.
//
// Adding a kind: a RequestOptions alternative (request.hpp), its canonical
// spec and metric flattening (request.cpp), one branch of exec's prepare
// (the one request dispatcher; it adopts the kind's sharded job when it has
// one), and one row here.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/request.hpp"

namespace enb::analysis {

// One manifest key of a kind. `apply` parses and validates `value` and
// writes it into the kind's RequestOptions alternative; it throws
// std::invalid_argument on a malformed value.
struct KindKey {
  std::string_view name;
  void (*apply)(RequestOptions& options, const std::string& key,
                const std::string& value);
};

struct KindInfo {
  const char* name;         // manifest / CLI / serve name (to_string)
  const char* headline;     // the metric summary tables lead with
  RequestOptions defaults;  // the kind's alternative, default-constructed
  std::vector<KindKey> keys;
};

// The row of `kind`.
[[nodiscard]] const KindInfo& kind_info(AnalysisKind kind);

// The metric the CLI summary tables and served result frames show for a
// result of `kind`.
[[nodiscard]] const char* headline_metric(AnalysisKind kind);

// The (headline metric, value) of an ok result that carries its kind's
// headline metric; nullopt otherwise.
[[nodiscard]] std::optional<std::pair<const char*, double>> headline(
    const AnalysisResult& result);

// Applies one key=value to `options` through the row of its kind. Throws
// std::invalid_argument when the value is malformed, or when the kind does
// not accept `key` (naming the kinds that do, if any).
void apply_key(RequestOptions& options, const std::string& key,
               const std::string& value);

}  // namespace enb::analysis
