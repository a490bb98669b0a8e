// delta_hosp_stream: writes beside the reads. A tracked session cleans
// HOSP once, then a seeded stream of one-tuple edits (50% inserts, 30%
// updates, 20% deletes, drawn from held-out generated tuples) goes through
// Session::ApplyDelta, each followed by CanonicalJournal().WriteCsv — what
// unicleand does for every DELTA reply. After the stream, the session's
// canonical fix set must equal a batch run's over the final relation.
//
// Not listed in BENCHMARK.json: that check fails on the current library
// once an edit's closure grows past ~100 tuples (see NOTES.md). The
// workload stays runnable as the reproducer and as the ready-made workload
// for when ApplyDelta converges.

#include <array>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>

#include "data/string_pool.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "uniclean/uniclean.h"
#include "workloads.h"

namespace perfbench {

using namespace uniclean;  // NOLINT

namespace {

constexpr int kTuples = 1000;
constexpr int kMaster = 1000;
constexpr int kHeldOut = 400;
constexpr int kMinEdits = 100;
constexpr int kSetups = 3;
// Deletes turn into inserts below this many live tuples.
constexpr int kMinLive = 900;

/// The standing state the stream edits: an engine and a tracked session
/// over `relation`, all interned in `pool`.
struct Tracked {
  std::unique_ptr<data::ScopedStringPool> pool;
  std::unique_ptr<data::Relation> relation;
  std::shared_ptr<CleanEngine> engine;
  Session session;
};

}  // namespace

void RunDeltaHospStream(const RunOptions& options, Report* report) {
  gen::GeneratorConfig config;
  config.num_tuples = kTuples + kHeldOut;
  config.master_size = kMaster;
  config.seed = options.seed;
  const std::string dir = options.work_dir;
  std::string rule_text;
  std::vector<std::pair<data::TupleId, data::TupleId>> true_matches;
  {
    gen::Dataset ds = gen::GenerateHosp(config);
    data::Relation initial = Slice(ds.dirty, 0, kTuples);
    data::Relation held = Slice(ds.dirty, kTuples, kHeldOut);
    const bool written =
        WriteTextFile(dir + "/initial.csv", RelationCsv(initial)) &&
        WriteTextFile(dir + "/initial_conf.csv", ConfidenceCsv(initial)) &&
        WriteTextFile(dir + "/held.csv", RelationCsv(held)) &&
        WriteTextFile(dir + "/held_conf.csv", ConfidenceCsv(held)) &&
        WriteTextFile(dir + "/master.csv", RelationCsv(ds.master)) &&
        WriteTextFile(dir + "/truth.csv", RelationCsv(ds.clean));
    if (!written) {
      report->Attempt(false, "cannot write the rendered inputs");
      return;
    }
    rule_text = ds.rule_text;
    true_matches = ds.true_matches;
  }

  // Setup, kSetups times: decode, build, warm up and run the tracked
  // initial clean. The last one stays for the stream.
  std::vector<double> setup_s;
  Tracked tracked;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous setup down before its string pool goes.
    tracked.session = Session();
    tracked.engine.reset();
    tracked.relation.reset();
    tracked.pool.reset();
    tracked.pool = std::make_unique<data::ScopedStringPool>();
    Span setup("bench.setup");
    const double t0 = Now();
    Result<data::Relation> initial = Status::Internal("not decoded");
    {
      Span span("data.decode");
      initial = DecodeCsvFiles(dir + "/initial.csv", dir + "/initial_conf.csv");
    }
    if (!initial.ok()) {
      report->Attempt(false, "decode: " + initial.status().ToString());
      return;
    }
    tracked.relation = std::make_unique<data::Relation>(std::move(*initial));
    {
      Span span("uniclean.build_engine");
      auto built = EngineBuilder()
                       .WithDataSchema(tracked.relation->schema_ptr())
                       .WithMasterCsv(dir + "/master.csv")
                       .WithRuleText(rule_text)
                       .WithEta(1.0)
                       .BuildEngine();
      if (!built.ok()) {
        report->Attempt(false, "build: " + built.status().ToString());
        return;
      }
      tracked.engine = std::move(built).value();
    }
    {
      Span span("core.env_build");
      tracked.engine->Warmup();
    }
    tracked.session = tracked.engine->NewTrackedSession();
    tracked.session.set_progress_callback(PhaseSpans());
    Result<CleanResult> run = Status::Internal("not run");
    {
      Span span("uniclean.run");
      run = tracked.session.Run(tracked.relation.get());
    }
    const double t1 = Now();
    report->Attempt(run.ok(), "tracked run: " + run.status().ToString());
    if (!run.ok()) return;
    setup_s.push_back(t1 - t0);
  }

  // Untimed: the held-out rows the edits draw from, the pristine mirror a
  // batch run replays at the end, and the ground truth.
  auto held = DecodeCsvFiles(dir + "/held.csv", dir + "/held_conf.csv");
  auto mirror = DecodeCsvFiles(dir + "/initial.csv", dir + "/initial_conf.csv");
  auto truth = DecodeCsvFiles(dir + "/truth.csv", "");
  if (!held.ok() || !mirror.ok() || !truth.ok()) {
    report->Attempt(false, "cannot decode the held-out rows or the truth");
    return;
  }
  // origin[id]: the generated tuple whose content tracked tuple `id` holds.
  std::vector<int> origin(kTuples);
  std::vector<data::TupleId> live(kTuples);
  for (int t = 0; t < kTuples; ++t) origin[t] = live[t] = t;

  std::mt19937_64 rng(options.seed);
  Session& session = tracked.session;
  std::vector<double> edit_s, affected, rounds, entries;
  double fixes[3] = {0, 0, 0};
  const core::MemoStats memo0 = tracked.engine->MemoStats();
  const size_t interned0 = data::StringPool::Global().Stats().interned;
  const AllocTally allocs0 = ProcessAllocs();
  int next_held = 0;
  std::string journal_csv;
  const double start = Now();
  const double deadline = start + options.seconds;
  while ((Now() < deadline || static_cast<int>(edit_s.size()) < kMinEdits) &&
         next_held < kHeldOut) {
    const uint64_t roll = rng() % 100;
    Delta delta;
    data::TupleId target = -1;
    size_t live_index = 0;
    if (roll >= 50 && (roll < 80 || static_cast<int>(live.size()) > kMinLive)) {
      live_index = static_cast<size_t>(rng() % live.size());
      target = live[live_index];
    }
    if (target < 0) {
      delta.inserts.push_back(held->tuple(next_held));
    } else if (roll < 80) {
      delta.updates.emplace_back(target, held->tuple(next_held));
    } else {
      delta.deletes.push_back(target);
    }

    Result<DeltaResult> dr = Status::Internal("not applied");
    bool encoded = false;
    {
      Span op("bench.edit", edit_s.size() + 1);
      const double t0 = Now();
      {
        Span span("uniclean.apply_delta");
        dr = session.ApplyDelta(delta);
      }
      if (dr.ok()) {
        FixJournal canonical;
        {
          Span span("uniclean.canonical_journal");
          canonical = session.CanonicalJournal();
        }
        Span span("uniclean.journal_encode");
        std::ostringstream csv;
        encoded = canonical.WriteCsv(csv).ok();
        journal_csv = csv.str();
        entries.push_back(static_cast<double>(canonical.size()));
      }
      edit_s.push_back(Now() - t0);
    }
    report->Attempt(dr.ok() && encoded,
                    "ApplyDelta: " + dr.status().ToString());
    if (!dr.ok()) return;
    affected.push_back(dr->affected);
    rounds.push_back(dr->refinement_rounds);
    const std::array<int, 3> phase_fixes = PhaseFixes(dr->phases);
    for (int i = 0; i < 3; ++i) fixes[i] += phase_fixes[i];

    // Mirror the edit on the pristine copy the final batch run replays.
    if (!delta.inserts.empty()) {
      const data::TupleId id = mirror->AddTuple(held->tuple(next_held));
      if (dr->inserted_ids.size() != 1 || dr->inserted_ids[0] != id) {
        report->Attempt(false, "inserted tuple got an unexpected id");
        return;
      }
      origin.push_back(kTuples + next_held++);
      live.push_back(id);
    } else if (!delta.updates.empty()) {
      mirror->mutable_tuple(target) = held->tuple(next_held);
      origin[target] = kTuples + next_held++;
    } else {
      mirror->EraseTuple(target);
      live[live_index] = live.back();
      live.pop_back();
    }
  }
  const double window = Now() - start;
  const AllocTally allocs1 = ProcessAllocs();
  const size_t interned1 = data::StringPool::Global().Stats().interned;
  const core::MemoStats memo1 = tracked.engine->MemoStats();

  // Output check: the incremental result equals a batch run over the final
  // relation, as a canonical fix set.
  data::Relation batch = mirror->Clone();
  Session batch_session = tracked.engine->NewTrackedSession();
  auto batch_run = batch_session.Run(&batch);
  const std::string fix_set = session.CanonicalJournal().CanonicalFixSetCsv();
  const bool converged =
      batch_run.ok() &&
      batch_session.CanonicalJournal().CanonicalFixSetCsv() == fix_set;
  report->Attempt(converged,
                  "the incremental fix set differs from a batch run's over "
                  "the final relation");
  if (!batch_run.ok() || edit_s.empty()) return;

  // Quality over the live tuples, against the generator's ground truth.
  const data::SchemaPtr& schema = mirror->schema_ptr();
  data::Relation input(schema), repaired(schema), expected(schema);
  std::vector<int> compact(origin.size(), -1);
  std::vector<int> generated_to_compact(kTuples + kHeldOut, -1);
  for (data::TupleId id = 0; id < mirror->size(); ++id) {
    if (!mirror->live(id)) continue;
    compact[id] = input.size();
    generated_to_compact[origin[id]] = input.size();
    input.AddTuple(mirror->tuple(id));
    repaired.AddTuple(tracked.relation->tuple(id));
    expected.AddTuple(truth->tuple(origin[id]));
  }
  std::vector<std::pair<data::TupleId, data::TupleId>> found, expected_matches;
  for (const auto& [d, m] : batch_run->AllMatches()) {
    if (compact[d] >= 0) found.emplace_back(compact[d], m);
  }
  for (const auto& [g, m] : true_matches) {
    if (generated_to_compact[g] >= 0) {
      expected_matches.emplace_back(generated_to_compact[g], m);
    }
  }

  const std::string n = std::to_string(edit_s.size()) + " edits";
  report->EndToEnd("setup_s", Median(setup_s), "s",
                   std::to_string(setup_s.size()) + " tracked initial runs");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "1 process");
  report->EndToEnd("tuples_per_s", static_cast<double>(edit_s.size()) / window,
                   "tuples/s", n + " x 1 tuple");
  report->EndToEnd("op_p50_ms", Median(edit_s) * 1e3, "ms", n);
  report->EndToEnd("op_p90_ms", Quantile(edit_s, 0.9) * 1e3, "ms", n);
  report->EndToEnd("repair_f1",
                   eval::RepairAccuracy(input, repaired, expected).F(), "ratio",
                   std::to_string(input.size()) + " live tuples");
  report->EndToEnd("match_f1",
                   eval::MatchAccuracy(found, expected_matches).F(), "ratio",
                   std::to_string(expected_matches.size()) + " true matches");
  report->Fingerprint("fix_set_fnv1a", HexHash(fix_set));
  report->Fingerprint("journal_fnv1a", HexHash(journal_csv));
  report->Fingerprint("fixes_c_e_h", std::to_string(int(fixes[0])) + "/" +
                                         std::to_string(int(fixes[1])) + "/" +
                                         std::to_string(int(fixes[2])));

  if (!kTraced) return;
  const double ops = static_cast<double>(edit_s.size());
  const TraceSummary trace = Summarize(CollectSpans(), "bench.edit");
  ReportTraceSummary(trace, "uniclean.apply_delta", report);
  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  report->Layer("data.pool_interned", static_cast<double>(interned1 - interned0));
  report->Layer("core.crepair_fixes", fixes[0] / ops);
  report->Layer("core.erepair_fixes", fixes[1] / ops);
  report->Layer("core.hrepair_fixes", fixes[2] / ops);
  const double hits = static_cast<double>(memo1.hits - memo0.hits);
  const double misses = static_cast<double>(memo1.misses - memo0.misses);
  report->Layer("core.memo_hits", hits / ops);
  report->Layer("core.memo_misses", misses / ops);
  report->Layer("core.memo_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Layer("core.memo_bytes", static_cast<double>(memo1.bytes));
  report->Layer("uniclean.journal_entries", mean_of(entries));
  report->Layer("uniclean.apply_delta_ms",
                trace.PerOp("uniclean.apply_delta") * 1e3);
  report->Layer("uniclean.canonical_journal_ms",
                trace.PerOp("uniclean.canonical_journal") * 1e3);
  report->Layer("uniclean.delta_affected", mean_of(affected));
  report->Layer("uniclean.delta_rounds", mean_of(rounds));
  report->Layer("alloc.count_per_op",
                static_cast<double>(allocs1.count - allocs0.count) / ops);
  report->Layer("alloc.bytes_per_op",
                static_cast<double>(allocs1.bytes - allocs0.bytes) / ops);
  ReportMdProbe(*tracked.engine, *held, 100, report);
}

}  // namespace perfbench
