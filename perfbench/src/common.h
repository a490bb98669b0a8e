// Shared plumbing of the benchmark's workloads: timing and statistics, the
// report each workload fills in, CSV rendering of generated inputs, and
// the summary of a traced run's spans.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "trace.h"
#include "uniclean/engine.h"
#include "uniclean/phase.h"

namespace perfbench {

/// Steady-clock seconds.
double Now();

/// The q-quantile (0..1) of `values`, linearly interpolated between order
/// statistics; 0 for an empty vector.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// 64-bit FNV-1a of `text` as 16 hex digits, printed in fingerprints.
std::string HexHash(std::string_view text);

/// The process's peak resident set, in MB.
double PeakRssMb();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// How long the timed part of the run lasts.
  double seconds = 10.0;
  /// Scratch directory for rendered inputs, snapshots and logs (created by
  /// main, removed after the run).
  std::string work_dir;
};

/// What one workload run reports. Metric names and units are the ones
/// BENCHMARK.json lists; a workload sets only the per-layer metrics of the
/// layers it calls, and main emits the rest as 0 (the layer did no work).
class Report {
 public:
  /// Counts one attempted operation and whether its output checked out.
  void Attempt(bool ok, const std::string& what_failed = "");
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& samples);
  void Layer(const std::string& name, double value);
  void Fingerprint(const std::string& key, const std::string& value);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string samples;
  };
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::map<std::string, double>& layer() const { return layer_; }
  const std::vector<std::pair<std::string, std::string>>& fingerprint() const {
    return fingerprint_;
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;  // the first few, for the log
  std::vector<Metric> end_to_end_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, std::string>> fingerprint_;
};

/// Every per-layer metric the benchmark defines, with its unit, in output
/// order (mirrors BENCHMARK.json's per_layer list).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// CSV renderings of a generated relation (values, and the per-cell
/// confidences in the shape the confidence readers consume).
std::string RelationCsv(const uniclean::data::Relation& relation);
std::string ConfidenceCsv(const uniclean::data::Relation& relation);
/// Copies `count` tuples of `relation` starting at `first` into a new
/// relation over the same schema.
uniclean::data::Relation Slice(const uniclean::data::Relation& relation,
                               int first, int count);

/// Reads a relation from a CSV file (schema from its header row), and its
/// per-cell confidences from `confidence_path` unless that is empty — what
/// the CLI does with --data/--confidence.
uniclean::Result<uniclean::data::Relation> DecodeCsvFiles(
    const std::string& csv_path, const std::string& confidence_path);

/// The cRepair, eRepair and hRepair fix counts of a run's phase stats.
std::array<int, 3> PhaseFixes(
    const std::vector<uniclean::PhaseStats>& phases);

/// Writes `text` to `path`; false on failure.
bool WriteTextFile(const std::string& path, const std::string& text);

/// A progress callback that opens a "core.<phase>" span when a phase
/// starts and closes it when the phase finishes (traced binary only).
uniclean::ProgressCallback PhaseSpans();

/// Times MdMatcher::FindMatches per probe with memos off, over up to
/// `max_probes` tuples of `data` per MD of the engine's rules, and reports
/// the median as similarity.md_probe_us (traced binary only).
void ReportMdProbe(const uniclean::CleanEngine& engine,
                   const uniclean::data::Relation& data, int max_probes,
                   Report* report);

/// Per-layer figures derived from a traced run's spans. "Op" spans are the
/// top-level spans named `op_span`, one per operation the workload times.
struct TraceSummary {
  int ops = 0;
  /// Summed over every span under an op span, divided by `ops`.
  std::map<std::string, double> seconds_per_op;      // by span name
  std::map<std::string, double> self_seconds_per_op;  // by layer
  std::map<std::string, double> self_allocs_per_op;   // by layer
  /// Share of the op spans' time their direct children cover.
  double child_coverage = 0.0;
  /// Over every span, wherever it sits: occurrences and mean duration.
  std::map<std::string, int> count;
  std::map<std::string, double> mean_seconds;
  size_t spans = 0;

  /// seconds_per_op / mean_seconds of a span name; 0 when absent.
  double PerOp(const std::string& name) const;
  double Mean(const std::string& name) const;
};
TraceSummary Summarize(const std::vector<SpanRecord>& spans,
                       const std::string& op_span);

/// Sets the layer metrics every traced workload derives from its spans:
/// per-layer self time and allocations, child coverage and span count, the
/// mean decode / engine build / warm-up / journal encode span, the phases
/// per op, and cRepair+eRepair's share of the `run_span` spans.
void ReportTraceSummary(const TraceSummary& summary,
                        const std::string& run_span, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
