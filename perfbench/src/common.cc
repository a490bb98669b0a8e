#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/md_matcher.h"
#include "data/csv.h"

namespace perfbench {

using namespace uniclean;  // NOLINT

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string HexHash(std::string_view text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

void Report::Attempt(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what_failed);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& samples) {
  end_to_end_.push_back({name, value, unit, samples});
}

void Report::Layer(const std::string& name, double value) {
  layer_[name] = value;
}

void Report::Fingerprint(const std::string& key, const std::string& value) {
  fingerprint_.emplace_back(key, value);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"data.decode_s", "s"},
      {"data.pool_interned", "count"},
      {"uniclean.build_engine_s", "s"},
      {"core.env_build_s", "s"},
      {"snapshot.load_s", "s"},
      {"snapshot.bytes", "bytes"},
      {"core.crepair_s", "s"},
      {"core.erepair_s", "s"},
      {"core.hrepair_s", "s"},
      {"core.crepair_fixes", "count"},
      {"core.erepair_fixes", "count"},
      {"core.hrepair_fixes", "count"},
      {"core.ce_run_share", "ratio"},
      {"core.memo_hits", "count"},
      {"core.memo_misses", "count"},
      {"core.memo_hit_rate", "ratio"},
      {"core.memo_bytes", "bytes"},
      {"core.concurrency_inflation", "ratio"},
      {"similarity.md_probe_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"serve.bytes_in_per_req", "bytes"},
      {"serve.bytes_out_per_req", "bytes"},
      {"serve.rejected", "count"},
      {"uniclean.journal_encode_s", "s"},
      {"uniclean.journal_entries", "count"},
      {"data.self_s", "s"},
      {"core.self_s", "s"},
      {"uniclean.self_s", "s"},
      {"serve.self_s", "s"},
      {"data.self_allocs", "count"},
      {"core.self_allocs", "count"},
      {"uniclean.self_allocs", "count"},
      {"serve.self_allocs", "count"},
      {"alloc.count_per_op", "count"},
      {"alloc.bytes_per_op", "bytes"},
      {"trace.child_coverage", "ratio"},
      {"trace.spans", "count"},
  };
  return kUnits;
}

std::string RelationCsv(const data::Relation& relation) {
  std::ostringstream out;
  if (!data::WriteCsv(out, relation).ok()) return {};
  return out.str();
}

std::string ConfidenceCsv(const data::Relation& relation) {
  std::ostringstream out;
  if (!data::WriteConfidenceCsv(out, relation).ok()) return {};
  return out.str();
}

data::Relation Slice(const data::Relation& relation, int first, int count) {
  data::Relation slice(relation.schema_ptr());
  for (int t = first; t < first + count; ++t) {
    slice.AddTuple(relation.tuple(t));
  }
  return slice;
}

Result<data::Relation> DecodeCsvFiles(const std::string& csv_path,
                                      const std::string& confidence_path) {
  UC_ASSIGN_OR_RETURN(data::SchemaPtr schema,
                      data::InferCsvSchema(csv_path, "data"));
  UC_ASSIGN_OR_RETURN(data::Relation relation,
                      data::ReadCsvFile(csv_path, schema));
  if (!confidence_path.empty()) {
    UC_RETURN_IF_ERROR(data::ReadConfidenceCsvFile(confidence_path, &relation));
  }
  return relation;
}

std::array<int, 3> PhaseFixes(const std::vector<PhaseStats>& phases) {
  std::array<int, 3> fixes = {0, 0, 0};
  for (const PhaseStats& stats : phases) {
    if (stats.phase == "cRepair") fixes[0] += stats.fixes;
    if (stats.phase == "eRepair") fixes[1] += stats.fixes;
    if (stats.phase == "hRepair") fixes[2] += stats.fixes;
  }
  return fixes;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

ProgressCallback PhaseSpans() {
  if (!kTraced) return nullptr;
  return [](const PhaseEvent& event) {
    if (event.kind == PhaseEvent::Kind::kPhaseStarted) {
      // Span names must outlive the record; the built-in phases are a
      // closed set, anything else is filed under one name.
      const char* name = event.phase == "cRepair"   ? "core.crepair"
                         : event.phase == "eRepair" ? "core.erepair"
                         : event.phase == "hRepair" ? "core.hrepair"
                                                    : "core.other_phase";
      BeginSpan(name);
    } else {
      EndSpan();
    }
  };
}

void ReportMdProbe(const CleanEngine& engine, const data::Relation& data,
                   int max_probes, Report* report) {
  if (!kTraced) return;
  const rules::RuleSet& rules = engine.rules();
  core::MdMatcherOptions options = engine.config().matcher;
  options.use_memos = false;
  std::vector<double> probe_us;
  size_t matches = 0;
  for (rules::RuleId id = 0; id < rules.num_rules(); ++id) {
    if (rules.kind(id) != rules::RuleKind::kMd) continue;
    core::MdMatcher matcher(rules.md(id), engine.master(), options);
    const int probes = std::min(max_probes, data.size());
    for (int t = 0; t < probes; ++t) {
      Span span("similarity.md_probe");
      const double t0 = Now();
      matches += matcher.FindMatches(data.tuple(t)).size();
      probe_us.push_back((Now() - t0) * 1e6);
    }
  }
  report->Layer("similarity.md_probe_us", Median(probe_us));
  std::printf("  similarity probes: %zu (memos off), %zu matches\n",
              probe_us.size(), matches);
}

TraceSummary Summarize(const std::vector<SpanRecord>& spans,
                       const std::string& op_span) {
  TraceSummary summary;
  summary.spans = spans.size();
  std::unordered_map<int64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  // Children time and allocations per span (children run nested on the
  // parent's thread, so their durations add up without overlap).
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<double> child_allocs(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    child_s[parent->second] += s.end - s.start;
    child_allocs[parent->second] += static_cast<double>(s.allocs.count);
  }
  // The top-level ancestor of every span.
  std::vector<int64_t> root(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t at = i;
    while (spans[at].parent >= 0) {
      auto parent = by_id.find(spans[at].parent);
      if (parent == by_id.end()) break;
      at = parent->second;
    }
    root[i] = static_cast<int64_t>(at);
  }

  double op_s = 0.0;
  double op_child_s = 0.0;
  std::map<std::string, double> total_s;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = s.end - s.start;
    total_s[s.name] += dur;
    ++summary.count[s.name];
    const SpanRecord& top = spans[static_cast<size_t>(root[i])];
    if (top.name != op_span) continue;
    if (&top == &s) {
      ++summary.ops;
      op_s += dur;
      op_child_s += child_s[i];
      continue;
    }
    summary.seconds_per_op[s.name] += dur;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    summary.self_seconds_per_op[layer] += dur - child_s[i];
    summary.self_allocs_per_op[layer] +=
        static_cast<double>(s.allocs.count) - child_allocs[i];
  }
  for (const auto& [name, total] : total_s) {
    summary.mean_seconds[name] = total / summary.count[name];
  }
  if (summary.ops > 0) {
    const double n = summary.ops;
    for (auto& [name, v] : summary.seconds_per_op) v /= n;
    for (auto& [name, v] : summary.self_seconds_per_op) v /= n;
    for (auto& [name, v] : summary.self_allocs_per_op) v /= n;
  }
  summary.child_coverage = op_s > 0 ? op_child_s / op_s : 0.0;
  return summary;
}

double TraceSummary::PerOp(const std::string& name) const {
  auto it = seconds_per_op.find(name);
  return it == seconds_per_op.end() ? 0.0 : it->second;
}

double TraceSummary::Mean(const std::string& name) const {
  auto it = mean_seconds.find(name);
  return it == mean_seconds.end() ? 0.0 : it->second;
}

void ReportTraceSummary(const TraceSummary& summary,
                        const std::string& run_span, Report* report) {
  report->Layer("data.decode_s", summary.Mean("data.decode"));
  report->Layer("uniclean.build_engine_s",
                summary.Mean("uniclean.build_engine"));
  report->Layer("core.env_build_s", summary.Mean("core.env_build"));
  report->Layer("uniclean.journal_encode_s",
                summary.Mean("uniclean.journal_encode"));
  const double c = summary.PerOp("core.crepair");
  const double e = summary.PerOp("core.erepair");
  const double run = summary.PerOp(run_span);
  report->Layer("core.crepair_s", c);
  report->Layer("core.erepair_s", e);
  report->Layer("core.hrepair_s", summary.PerOp("core.hrepair"));
  report->Layer("core.ce_run_share", run > 0 ? (c + e) / run : 0.0);
  for (const char* layer : {"data", "core", "uniclean", "serve"}) {
    auto s = summary.self_seconds_per_op.find(layer);
    auto a = summary.self_allocs_per_op.find(layer);
    report->Layer(std::string(layer) + ".self_s",
                  s == summary.self_seconds_per_op.end() ? 0.0 : s->second);
    report->Layer(std::string(layer) + ".self_allocs",
                  a == summary.self_allocs_per_op.end() ? 0.0 : a->second);
  }
  report->Layer("trace.child_coverage", summary.child_coverage);
  report->Layer("trace.spans", static_cast<double>(summary.spans));
}

}  // namespace perfbench
