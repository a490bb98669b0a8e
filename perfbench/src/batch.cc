// batch_dblp_cold: the CLI or library user's one-shot clean. Every sample
// reads the rendered CSV files under a fresh string pool, builds a fresh
// engine (cold memos), warms it, runs Session::Run and renders the journal:
// the work of one `uniclean_cli --journal` invocation.

#include <sys/stat.h>

#include <array>
#include <cstdio>
#include <sstream>

#include "data/string_pool.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "rules/violation.h"
#include "uniclean/uniclean.h"
#include "workloads.h"

namespace perfbench {

using namespace uniclean;  // NOLINT

namespace {

constexpr int kTuples = 2000;
constexpr int kMaster = 2000;
constexpr int kDatasets = 4;

struct BatchFiles {
  std::string dirty;
  std::string confidence;
  std::string master;
  std::string truth;
  std::string rule_text;
};

/// One sample's timings and outputs.
struct Sample {
  double setup_s = 0.0;  // decode + BuildEngine + Warmup
  double run_s = 0.0;    // Session::Run + journal render
  std::string journal_csv;
  std::array<int, 3> fixes = {0, 0, 0};
  core::MemoStats memo;
  size_t interned = 0;
  int journal_entries = 0;
  double repair_f1 = 0.0;
  double match_f1 = 0.0;
};

/// Runs one cold sample as request `request`; failures are reported and
/// leave `sample` partial.
bool RunSample(const BatchFiles& files,
               const std::vector<std::pair<data::TupleId, data::TupleId>>&
                   true_matches,
               uint64_t request, bool evaluate, bool probe, Sample* sample,
               Report* report) {
  data::ScopedStringPool pool;
  const size_t interned0 = data::StringPool::Global().Stats().interned;
  std::shared_ptr<CleanEngine> engine;
  Result<CleanResult> result = Status::Internal("not run");
  Result<data::Relation> dirty = Status::Internal("not decoded");
  {
    Span op("bench.batch_clean", request);
    const double t0 = Now();
    {
      Span span("data.decode");
      dirty = DecodeCsvFiles(files.dirty, files.confidence);
    }
    if (!dirty.ok()) {
      report->Attempt(false, "decode: " + dirty.status().ToString());
      return false;
    }
    {
      Span span("uniclean.build_engine");
      auto built = EngineBuilder()
                       .WithDataSchema(dirty->schema_ptr())
                       .WithMasterCsv(files.master)
                       .WithRuleText(files.rule_text)
                       .WithEta(1.0)
                       .BuildEngine();
      if (!built.ok()) {
        report->Attempt(false, "build: " + built.status().ToString());
        return false;
      }
      engine = std::move(built).value();
    }
    {
      Span span("core.env_build");
      engine->Warmup();
    }
    const double t1 = Now();
    Session session = engine->NewSession();
    session.set_progress_callback(PhaseSpans());
    {
      Span span("uniclean.run");
      result = session.Run(&*dirty);
    }
    if (result.ok()) {
      Span span("uniclean.journal_encode");
      std::ostringstream csv;
      if (result->journal.WriteCsv(csv).ok()) sample->journal_csv = csv.str();
    }
    const double t2 = Now();
    sample->setup_s = t1 - t0;
    sample->run_s = t2 - t1;
  }
  sample->interned = data::StringPool::Global().Stats().interned - interned0;
  if (!result.ok()) {
    report->Attempt(false, "run: " + result.status().ToString());
    return false;
  }
  sample->memo = engine->MemoStats();
  sample->journal_entries = static_cast<int>(result->journal.size());
  sample->fixes = PhaseFixes(result->phases);

  // Output check: the repair satisfies every CFD (Corollary 7.1). The MD
  // half of the check is a nested-loop reference that takes minutes at this
  // size; it stays in the test suite.
  const rules::RuleSet& rules = engine->rules();
  int violated = 0;
  for (rules::RuleId id = 0; id < rules.num_rules(); ++id) {
    if (rules.IsCfd(id) &&
        !rules::FindCfdViolations(*dirty, rules, id, 1).empty()) {
      ++violated;
    }
  }
  if (violated > 0 || sample->journal_csv.empty()) {
    report->Attempt(false, sample->journal_csv.empty()
                               ? "cannot render the journal"
                               : std::to_string(violated) +
                                     " CFDs still violated after the repair");
    return false;
  }

  if (evaluate) {
    // Quality against the generator's ground truth, read back from the
    // same rendered files into this sample's pool.
    auto input = DecodeCsvFiles(files.dirty, "");
    auto truth = DecodeCsvFiles(files.truth, "");
    if (!input.ok() || !truth.ok()) {
      report->Attempt(false, "cannot decode the evaluation inputs");
      return false;
    }
    sample->repair_f1 = eval::RepairAccuracy(*input, *dirty, *truth).F();
    sample->match_f1 =
        eval::MatchAccuracy(result->AllMatches(), true_matches).F();
  }
  if (probe) {
    auto input = DecodeCsvFiles(files.dirty, "");
    if (input.ok()) ReportMdProbe(*engine, *input, 100, report);
  }
  return true;
}

}  // namespace

void RunBatchDblpCold(const RunOptions& options, Report* report) {
  // kDatasets generated datasets, sample i cleaning dataset i % kDatasets:
  // medians and quality then describe several datasets per run rather than
  // one, which keeps them steady from seed to seed.
  std::vector<BatchFiles> files(kDatasets);
  std::vector<std::vector<std::pair<data::TupleId, data::TupleId>>>
      true_matches(kDatasets);
  for (int i = 0; i < kDatasets; ++i) {
    gen::GeneratorConfig config;
    config.num_tuples = kTuples;
    config.master_size = kMaster;
    config.seed = options.seed * kDatasets + static_cast<uint64_t>(i);
    gen::Dataset ds = gen::GenerateDblp(config);
    const std::string dir = options.work_dir + "/" + std::to_string(i);
    files[i] = {dir + "/dirty.csv", dir + "/confidence.csv",
                dir + "/master.csv", dir + "/truth.csv", ds.rule_text};
    const bool written =
        ::mkdir(dir.c_str(), 0755) == 0 &&
        WriteTextFile(files[i].dirty, RelationCsv(ds.dirty)) &&
        WriteTextFile(files[i].confidence, ConfidenceCsv(ds.dirty)) &&
        WriteTextFile(files[i].master, RelationCsv(ds.master)) &&
        WriteTextFile(files[i].truth, RelationCsv(ds.clean));
    if (!written) {
      report->Attempt(false, "cannot write the rendered inputs");
      return;
    }
    true_matches[i] = ds.true_matches;
  }

  std::vector<Sample> samples;
  std::vector<Sample> first_of(kDatasets);  // each dataset's first sample
  const AllocTally allocs0 = ProcessAllocs();
  const double deadline = Now() + options.seconds;
  for (int i = 0; Now() < deadline || i < kDatasets; ++i) {
    const int d = i % kDatasets;
    const bool first = i < kDatasets;
    Sample sample;
    if (!RunSample(files[d], true_matches[d], i + 1, first, false, &sample,
                   report)) {
      continue;
    }
    if (!first && sample.journal_csv != first_of[d].journal_csv) {
      report->Attempt(false, "journal differs between identical cold runs");
      continue;
    }
    report->Attempt(true);
    if (first) first_of[d] = sample;
    samples.push_back(std::move(sample));
  }
  const AllocTally allocs1 = ProcessAllocs();
  if (static_cast<int>(samples.size()) < kDatasets) return;

  std::vector<double> setup_s, run_s;
  std::printf("  samples (setup s / run s):");
  for (const Sample& s : samples) {
    setup_s.push_back(s.setup_s);
    run_s.push_back(s.run_s);
    std::printf(" %.3f/%.3f", s.setup_s, s.run_s);
  }
  std::printf("\n");
  double repair_f1 = 0.0, match_f1 = 0.0;
  size_t matches = 0;
  int fixes[3] = {0, 0, 0};
  std::string journals;
  for (int d = 0; d < kDatasets; ++d) {
    repair_f1 += first_of[d].repair_f1 / kDatasets;
    match_f1 += first_of[d].match_f1 / kDatasets;
    matches += true_matches[d].size();
    journals += first_of[d].journal_csv;
    for (int p = 0; p < 3; ++p) fixes[p] += first_of[d].fixes[p];
  }
  const std::string n = std::to_string(samples.size()) + " cold cleans of " +
                        std::to_string(kDatasets) + " datasets";
  report->EndToEnd("setup_s", Median(setup_s), "s", n);
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "1 process");
  report->EndToEnd("tuples_per_s", kTuples / Median(run_s), "tuples/s",
                   n + " x " + std::to_string(kTuples) + " tuples");
  report->EndToEnd("op_p50_ms", Median(run_s) * 1e3, "ms", n);
  report->EndToEnd("op_p90_ms", Quantile(run_s, 0.9) * 1e3, "ms", n);
  report->EndToEnd("repair_f1", repair_f1, "ratio",
                   "mean of " + std::to_string(kDatasets) + " datasets x " +
                       std::to_string(kTuples) + " tuples");
  report->EndToEnd("match_f1", match_f1, "ratio",
                   "mean of " + std::to_string(kDatasets) + " datasets, " +
                       std::to_string(matches) + " true matches");

  report->Fingerprint("journal_fnv1a", HexHash(journals));
  report->Fingerprint("fixes_c_e_h", std::to_string(fixes[0]) + "/" +
                                         std::to_string(fixes[1]) + "/" +
                                         std::to_string(fixes[2]));

  if (!kTraced) return;
  // One more sample, outside the timed window, for the similarity probe.
  Sample probe_sample;
  RunSample(files[0], true_matches[0], samples.size() + 1, false, true,
            &probe_sample, report);

  const TraceSummary trace = Summarize(CollectSpans(), "bench.batch_clean");
  ReportTraceSummary(trace, "uniclean.run", report);
  // Counts per cold clean, averaged over the run's samples.
  const double ops = static_cast<double>(samples.size());
  double interned = 0, entries = 0, hits = 0, misses = 0, memo_bytes = 0;
  double fix_mean[3] = {0, 0, 0};
  for (const Sample& s : samples) {
    interned += static_cast<double>(s.interned) / ops;
    entries += s.journal_entries / ops;
    hits += static_cast<double>(s.memo.hits) / ops;
    misses += static_cast<double>(s.memo.misses) / ops;
    memo_bytes += static_cast<double>(s.memo.bytes) / ops;
    for (int p = 0; p < 3; ++p) fix_mean[p] += s.fixes[p] / ops;
  }
  report->Layer("data.pool_interned", interned);
  report->Layer("core.crepair_fixes", fix_mean[0]);
  report->Layer("core.erepair_fixes", fix_mean[1]);
  report->Layer("core.hrepair_fixes", fix_mean[2]);
  report->Layer("core.memo_hits", hits);
  report->Layer("core.memo_misses", misses);
  report->Layer("core.memo_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Layer("core.memo_bytes", memo_bytes);
  report->Layer("uniclean.journal_entries", entries);
  report->Layer("alloc.count_per_op",
                static_cast<double>(allocs1.count - allocs0.count) / ops);
  report->Layer("alloc.bytes_per_op",
                static_cast<double>(allocs1.bytes - allocs0.bytes) / ops);
}

}  // namespace perfbench
