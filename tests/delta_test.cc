// Incremental cleaning (Session::ApplyDelta): the convergence contract —
// streaming edits through a tracked session yields the same repaired cells
// and the same canonical fix set as one cold batch run over the final
// relation — at |D| = 220 and at |D| = |Dm| = 1000, plus the edge cases
// around it: batched edits, updates, deletes/tombstones, fresh violation
// groups, no-op deltas, validation atomicity, cancellation atomicity, and
// concurrent tracked sessions (the TSan target).

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/value.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"
#include "uniclean/session.h"

namespace uniclean {
namespace {

gen::Dataset MakeDataset(const std::string& name, uint64_t seed,
                         int num_tuples = 220) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = 120;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  if (name == "HOSP") return gen::GenerateHosp(config);
  if (name == "DBLP") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

std::shared_ptr<CleanEngine> MakeEngine(const gen::Dataset& ds) {
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Full canonical CSV including phase/rule provenance. Only comparable
/// between journals that took the SAME derivation path (no-op deltas,
/// replayed streams); cross-run convergence pins use CanonicalFixSetCsv,
/// because which phase lands the final write is trajectory-dependent.
std::string CanonicalCsv(const FixJournal& journal) {
  std::ostringstream out;
  EXPECT_TRUE(journal.Canonicalized().WriteCsv(out).ok());
  return out.str();
}

/// Cell diff over live tuples only (tombstoned slots retain whatever bytes
/// they died with, which legitimately differs between an incremental and a
/// batch history).
int LiveCellDiff(const data::Relation& a, const data::Relation& b) {
  EXPECT_EQ(a.size(), b.size());
  int diff = 0;
  for (data::TupleId t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.live(t), b.live(t)) << "tombstones disagree at " << t;
    if (!a.live(t) || !b.live(t)) continue;
    for (data::AttributeId at = 0; at < a.schema().arity(); ++at) {
      if (a.tuple(t).value(at) != b.tuple(t).value(at)) ++diff;
    }
  }
  return diff;
}

/// Batch-cleans `relation` in place with a fresh tracked session and
/// returns the canonical fix-set CSV (the convergence invariant).
std::string BatchFixSetCsv(const std::shared_ptr<CleanEngine>& engine,
                           data::Relation* relation) {
  Session session = engine->NewTrackedSession();
  auto run = session.Run(relation);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return session.CanonicalJournal().CanonicalFixSetCsv();
}

// --- The convergence pin: N single-tuple inserts == one batch run. --------

class DeltaConvergenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaConvergenceTest, StreamedInsertsConvergeToBatch) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/42);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 5;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }

  Session session = engine->NewTrackedSession();
  auto initial = session.Run(&incremental);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  EXPECT_EQ(session.generation(), 0);

  for (int k = 0; k < kHeld; ++k) {
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_EQ(dr->generation, k + 1);
    ASSERT_EQ(dr->inserted_ids.size(), 1u);
    EXPECT_EQ(dr->inserted_ids[0], ds.dirty.size() - kHeld + k);
    EXPECT_GE(dr->affected, 1);
    EXPECT_GE(dr->refinement_rounds, 1);
  }
  EXPECT_EQ(session.generation(), kHeld);

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv);
}

TEST_P(DeltaConvergenceTest, OneBatchedDeltaConvergesToBatch) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/7);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 5;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }

  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  Delta delta;
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
  }
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 1);
  EXPECT_EQ(dr->inserted_ids.size(), static_cast<size_t>(kHeld));

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DeltaConvergenceTest,
                         ::testing::Values("HOSP", "DBLP", "TPCH"));

// At |D| = |Dm| = 1000 an edit's reach spans hundreds of tuples. Ten
// single-tuple inserts streamed through a tracked session must still land
// on the batch result, with and without hRepair.
void ExpectHosp1000StreamConverges(uint64_t seed, bool hrepair) {
  constexpr int kInitial = 1000;
  constexpr int kHeld = 10;
  gen::GeneratorConfig config;
  config.num_tuples = kInitial + kHeld;
  config.master_size = 1000;
  config.seed = seed;
  gen::Dataset ds = gen::GenerateHosp(config);
  auto built = EngineBuilder()
                   .WithDataSchema(ds.dirty.schema_ptr())
                   .WithMaster(&ds.master)
                   .WithRules(&ds.rules)
                   .WithEta(1.0)
                   .WithDefaultPhases(true, true, hrepair)
                   .BuildEngine();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<CleanEngine> engine = std::move(built).value();

  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < kInitial; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  for (int k = 0; k < kHeld; ++k) {
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(kInitial + k));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_EQ(dr->generation, k + 1);
  }

  data::Relation batch = ds.dirty.Clone();
  Session batch_session = engine->NewTrackedSession();
  ASSERT_TRUE(batch_session.Run(&batch).ok());
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(),
            batch_session.CanonicalJournal().CanonicalFixSetCsv());
}

TEST(DeltaConvergenceTest, Hosp1000StreamSeed1ConvergesToBatch) {
  ExpectHosp1000StreamConverges(/*seed=*/1, /*hrepair=*/true);
}

TEST(DeltaConvergenceTest, Hosp1000StreamSeed2ConvergesToBatch) {
  ExpectHosp1000StreamConverges(/*seed=*/2, /*hrepair=*/true);
}

TEST(DeltaConvergenceTest, Hosp1000StreamSeed1WithoutHRepairConvergesToBatch) {
  ExpectHosp1000StreamConverges(/*seed=*/1, /*hrepair=*/false);
}

TEST(DeltaConvergenceTest, Hosp1000StreamSeed2WithoutHRepairConvergesToBatch) {
  ExpectHosp1000StreamConverges(/*seed=*/2, /*hrepair=*/false);
}

// --- Updates --------------------------------------------------------------

TEST(DeltaTest, ResolvingUpdateConvergesToBatch) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/11);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  // A curator hand-corrects tuple 3 to its ground-truth content.
  const data::TupleId target = 3;
  Delta delta;
  delta.updates.emplace_back(target, ds.clean.tuple(target));
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_GE(dr->affected, 1);

  data::Relation batch = ds.dirty.Clone();
  batch.mutable_tuple(target) = ds.clean.tuple(target);
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv);
}

// --- Deletes and tombstones ----------------------------------------------

TEST(DeltaTest, DeleteThenReinsertConvergesToBatch) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/23);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  const data::TupleId victim = 2;
  {
    Delta delta;
    delta.deletes.push_back(victim);
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_FALSE(incremental.live(victim));
  }
  {
    // The same content comes back as a fresh row: ids are never recycled,
    // so it must land under a new id and re-clean like any insert.
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(victim));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    ASSERT_EQ(dr->inserted_ids.size(), 1u);
    EXPECT_EQ(dr->inserted_ids[0], ds.dirty.size());
  }

  data::Relation batch = ds.dirty.Clone();
  batch.EraseTuple(victim);
  batch.AddTuple(ds.dirty.tuple(victim));
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv);
}

// --- Fresh violation group ------------------------------------------------

TEST(DeltaTest, InsertIntoFreshViolationGroupStaysScoped) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/31);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  // A tuple whose every cell is a brand-new string shares no violation
  // group (and matches no master record), so the re-clean must not spread.
  data::Tuple alien = ds.dirty.tuple(0);
  for (data::AttributeId a = 0; a < alien.arity(); ++a) {
    alien.set_value(a, data::Value("zz-unique-" + std::to_string(a)));
    alien.set_confidence(a, 0.0);
    alien.set_mark(a, data::FixMark::kNone);
  }
  Delta delta;
  delta.inserts.push_back(alien);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_GE(dr->affected, 1);
  EXPECT_LT(dr->affected, incremental.size() / 4);

  data::Relation batch = ds.dirty.Clone();
  batch.AddTuple(alien);
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv);
}

// --- No-op and validation -------------------------------------------------

TEST(DeltaTest, EmptyDeltaIsANoOp) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const std::string before = CanonicalCsv(session.CanonicalJournal());

  auto dr = session.ApplyDelta(Delta{});
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 0);
  EXPECT_EQ(dr->affected, 0);
  EXPECT_EQ(dr->refinement_rounds, 0);
  EXPECT_EQ(session.generation(), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), before);
}

TEST(DeltaTest, InvalidEditsAreRejectedAtomically) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const int size_before = incremental.size();
  const std::string journal_before = CanonicalCsv(session.CanonicalJournal());

  {
    Delta delta;
    delta.updates.emplace_back(incremental.size() + 5,
                               ds.dirty.tuple(0));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Delta delta;
    delta.inserts.push_back(data::Tuple(incremental.schema().arity() + 1));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Delta delta;
    delta.deletes.push_back(incremental.size());
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A delta that mixes a valid insert with a bad delete must apply
    // nothing at all.
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(0));
    delta.deletes.push_back(incremental.size() + 1);
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Deleting a tombstone is an error too (double delete).
    Delta ok_delta;
    ok_delta.deletes.push_back(1);
    ASSERT_TRUE(session.ApplyDelta(ok_delta).ok());
    Delta again;
    again.deletes.push_back(1);
    auto dr = session.ApplyDelta(again);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
    Delta update_dead;
    update_dead.updates.emplace_back(1, ds.dirty.tuple(0));
    dr = session.ApplyDelta(update_dead);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }

  EXPECT_EQ(incremental.size(), size_before);  // failed edits applied nothing
  EXPECT_EQ(session.generation(), 1);          // only the valid delete landed
  // The journal shrank only by the deleted tuple's covering entries.
  EXPECT_LE(CanonicalCsv(session.CanonicalJournal()).size(),
            journal_before.size());
}

TEST(DeltaTest, ApplyDeltaRequiresATrackedRun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  {
    // Untracked session: Run succeeds, ApplyDelta refuses.
    data::Relation d = ds.dirty.Clone();
    Session session = engine->NewSession();
    ASSERT_TRUE(session.Run(&d).ok());
    auto dr = session.ApplyDelta(Delta{});
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Tracked session before its Run.
    Session session = engine->NewTrackedSession();
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(0));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Empty session.
    Session session;
    auto dr = session.ApplyDelta(Delta{});
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
}

// --- Concurrency (the TSan target) ---------------------------------------

TEST(DeltaTest, ConcurrentTrackedSessionsMatchSerial) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/42, /*num_tuples=*/150);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 3;
  auto build_initial = [&] {
    data::Relation initial(ds.dirty.schema_ptr());
    for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
      initial.AddTuple(ds.dirty.tuple(t));
    }
    return initial;
  };

  // Serial reference.
  data::Relation serial = build_initial();
  std::string serial_csv;
  {
    Session session = engine->NewTrackedSession();
    ASSERT_TRUE(session.Run(&serial).ok());
    for (int k = 0; k < kHeld; ++k) {
      Delta delta;
      delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
      ASSERT_TRUE(session.ApplyDelta(delta).ok());
    }
    serial_csv = CanonicalCsv(session.CanonicalJournal());
  }

  // The same stream, in several tracked sessions at once on the shared
  // engine: each owns an independent relation, all hit the same warm match
  // environment and memos.
  constexpr int kThreads = 4;
  std::vector<data::Relation> relations;
  relations.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) relations.push_back(build_initial());
  std::vector<std::string> csvs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session session = engine->NewTrackedSession();
      auto run = session.Run(&relations[static_cast<size_t>(i)]);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      for (int k = 0; k < kHeld; ++k) {
        Delta delta;
        delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
        auto dr = session.ApplyDelta(delta);
        EXPECT_TRUE(dr.ok()) << dr.status().ToString();
      }
      csvs[static_cast<size_t>(i)] = CanonicalCsv(session.CanonicalJournal());
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(csvs[static_cast<size_t>(i)], serial_csv) << "thread " << i;
    EXPECT_EQ(LiveCellDiff(relations[static_cast<size_t>(i)], serial), 0)
        << "thread " << i;
  }
}

// --- Cooperative cancellation ---------------------------------------------
//
// The never-tears-state pin: a run cancelled at an ARBITRARY poll boundary
// either completes (journal and data byte-identical to an uncancelled run)
// or fails kCancelled with ZERO fixes applied to the caller's relation.

std::string RelationCsv(const data::Relation& r) {
  std::ostringstream out;
  EXPECT_TRUE(data::WriteCsv(out, r).ok());
  return out.str();
}

TEST(CancellationTest, CancelledRunNeverTearsState) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/7, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation baseline = ds.dirty.Clone();
  Session base_session = engine->NewSession();
  auto base_run = base_session.Run(&baseline);
  ASSERT_TRUE(base_run.ok()) << base_run.status().ToString();
  std::ostringstream base_journal;
  ASSERT_TRUE(base_run->journal.WriteCsv(base_journal).ok());
  const std::string dirty_csv = RelationCsv(ds.dirty);

  bool saw_cancel = false;
  bool saw_success = false;
  for (int64_t polls : {0, 1, 2, 3, 5, 8, 13, 21, 34, 200, 1000000}) {
    data::Relation working = ds.dirty.Clone();
    auto token = std::make_shared<common::CancelToken>();
    token->CancelAfterChecksForTest(polls);
    Session session = engine->NewSession();
    session.set_cancel_token(token);
    auto run = session.Run(&working);
    if (run.ok()) {
      saw_success = true;
      std::ostringstream journal;
      ASSERT_TRUE(run->journal.WriteCsv(journal).ok());
      EXPECT_EQ(journal.str(), base_journal.str()) << "polls=" << polls;
      EXPECT_EQ(RelationCsv(working), RelationCsv(baseline))
          << "polls=" << polls;
    } else {
      saw_cancel = true;
      EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
          << run.status().ToString();
      EXPECT_EQ(RelationCsv(working), dirty_csv)
          << "cancelled run applied fixes (polls=" << polls << ")";
    }
  }
  // The poll spread must actually exercise both outcomes, or the property
  // above pinned nothing.
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_success);
}

TEST(CancellationTest, CancelledApplyDeltaAppliesNothing) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/7, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation initial(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - 1; ++t) {
    initial.AddTuple(ds.dirty.tuple(t));
  }
  Delta insert_last;
  insert_last.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - 1));

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchFixSetCsv(engine, &batch);

  bool saw_cancel = false;
  bool saw_success = false;
  for (int64_t polls : {0, 1, 2, 3, 5, 8, 13, 21, 34, 200, 1000000}) {
    data::Relation relation = initial.Clone();
    Session session = engine->NewTrackedSession();
    ASSERT_TRUE(session.Run(&relation).ok());
    const std::string relation_before = RelationCsv(relation);
    const std::string journal_before = CanonicalCsv(session.CanonicalJournal());
    const size_t history_before = session.journal().size();

    auto token = std::make_shared<common::CancelToken>();
    token->CancelAfterChecksForTest(polls);
    session.set_cancel_token(token);
    auto dr = session.ApplyDelta(insert_last);
    session.set_cancel_token(nullptr);
    if (dr.ok()) {
      saw_success = true;
    } else {
      saw_cancel = true;
      EXPECT_EQ(dr.status().code(), StatusCode::kCancelled)
          << dr.status().ToString();
      EXPECT_EQ(RelationCsv(relation), relation_before)
          << "cancelled delta touched the relation (polls=" << polls << ")";
      EXPECT_EQ(session.generation(), 0) << "polls=" << polls;
      EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), journal_before)
          << "polls=" << polls;
      EXPECT_EQ(session.journal().size(), history_before) << "polls=" << polls;
      // The session stays usable: the same delta, un-cancelled, lands.
      auto retried = session.ApplyDelta(insert_last);
      ASSERT_TRUE(retried.ok()) << retried.status().ToString();
      EXPECT_EQ(retried->generation, 1);
    }
    EXPECT_EQ(session.generation(), 1) << "polls=" << polls;
    EXPECT_EQ(LiveCellDiff(relation, batch), 0) << "polls=" << polls;
    EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), batch_csv)
        << "polls=" << polls;
  }
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_success);
}

TEST(CancellationTest, TrackedSessionUsableAfterCancelledRun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/11, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation initial(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - 1; ++t) {
    initial.AddTuple(ds.dirty.tuple(t));
  }
  Delta insert_last;
  insert_last.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - 1));

  // Reference: an untainted tracked run + one insert delta.
  data::Relation ref_relation = initial.Clone();
  Session reference = engine->NewTrackedSession();
  ASSERT_TRUE(reference.Run(&ref_relation).ok());
  ASSERT_TRUE(reference.ApplyDelta(insert_last).ok());
  const std::string ref_fixes = reference.CanonicalJournal().CanonicalFixSetCsv();

  // A token tripped before the first poll cancels the tracked run...
  data::Relation relation = initial.Clone();
  Session session = engine->NewTrackedSession();
  auto token = std::make_shared<common::CancelToken>();
  token->Cancel("client gave up");
  session.set_cancel_token(token);
  auto cancelled = session.Run(&relation);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(RelationCsv(relation), RelationCsv(initial))
      << "cancelled tracked run must leave the relation untouched";

  // ...and resets tracking: deltas need a fresh Run first.
  EXPECT_FALSE(session.ApplyDelta(insert_last).ok());

  // The same Session object stays fully usable once the token is cleared.
  session.set_cancel_token(nullptr);
  auto rerun = session.Run(&relation);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ASSERT_TRUE(session.ApplyDelta(insert_last).ok());
  EXPECT_EQ(session.CanonicalJournal().CanonicalFixSetCsv(), ref_fixes);
  EXPECT_EQ(LiveCellDiff(relation, ref_relation), 0);
}

TEST(CancellationTest, CancelInsidePhaseNamesThePhase) {
  // Poll 0 is the pipeline's own check before cRepair starts; the token
  // trips on the next poll, inside cRepair, and the status names the phase
  // the run stopped in.
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/7, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);
  data::Relation working = ds.dirty.Clone();
  auto token = std::make_shared<common::CancelToken>();
  token->CancelAfterChecksForTest(1);
  Session session = engine->NewSession();
  session.set_cancel_token(token);
  auto run = session.Run(&working);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  const std::string prefix = "phase '" + std::string(kCRepairPhase) + "': ";
  EXPECT_EQ(run.status().message().rfind(prefix, 0), 0u)
      << run.status().ToString();
  EXPECT_EQ(RelationCsv(working), RelationCsv(ds.dirty));
}

}  // namespace
}  // namespace uniclean
