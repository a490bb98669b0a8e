// Tests for the engine-scoped core::MatchEnvironment and the warm sessions
// built on it. Two properties matter:
//
//  1. Parity: sharing one matcher (index + memos) across cRepair / eRepair /
//     hRepair must be invisible — the pipeline's journal and repaired
//     relation must be byte-identical to the per-phase-matcher baseline
//     (a fresh MatchEnvironment built for each phase).
//  2. Warm reuse: an engine builds its MD indexes at most once per lifetime;
//     successive Session::Run calls over fresh dirty relations reuse them
//     and produce identical journals (warm-rerun determinism).

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

gen::Dataset MakeDataset(const std::string& name, uint64_t seed) {
  gen::GeneratorConfig config;
  config.num_tuples = 250;
  config.master_size = 120;
  config.noise_rate = 0.08;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  if (name == "HOSP") return gen::GenerateHosp(config);
  if (name == "DBLP") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

/// Mirrors the pipeline's internal journal observer: one entry per fix with
/// the attribute and rule resolved to names.
core::FixObserver Journaling(FixJournal* journal, const data::Relation* data,
                             const rules::RuleSet* rules,
                             std::string_view phase) {
  return [journal, data, rules, phase](data::TupleId t, data::AttributeId a,
                                       const data::Value& old_value,
                                       const data::Value& new_value,
                                       rules::RuleId rule) {
    FixEntry entry;
    entry.tuple = t;
    entry.attr = a;
    entry.attribute = data->schema().attribute_name(a);
    entry.old_value = old_value;
    entry.new_value = new_value;
    entry.phase = std::string(phase);
    if (rule >= 0 && rule < rules->num_rules()) {
      entry.rule = rules->rule_name(rule);
    }
    journal->Append(std::move(entry));
  };
}

struct Outcome {
  std::string journal_text;
  std::string journal_csv;
  std::vector<std::vector<std::string>> repaired;
};

Outcome Materialize(const FixJournal& journal, const data::Relation& data) {
  Outcome outcome;
  std::ostringstream text;
  std::ostringstream csv;
  EXPECT_TRUE(journal.WriteText(text).ok());
  EXPECT_TRUE(journal.WriteCsv(csv).ok());
  outcome.journal_text = text.str();
  outcome.journal_csv = csv.str();
  outcome.repaired.reserve(static_cast<size_t>(data.size()));
  for (const data::Tuple& t : data.tuples()) {
    std::vector<std::string> row;
    row.reserve(t.values().size());
    for (const data::Value& v : t.values()) row.push_back(v.ToString());
    outcome.repaired.push_back(std::move(row));
  }
  return outcome;
}

std::shared_ptr<CleanEngine> MakeEngine(const gen::Dataset& ds, double eta) {
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(eta)
                    .BuildEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

class MatchEnvironmentParity : public ::testing::TestWithParam<const char*> {};

TEST_P(MatchEnvironmentParity, SharedEnvironmentMatchesPerPhaseBaseline) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/17);
  const double eta = 1.0;

  // Baseline: each phase builds (and warms) its own matchers in a fresh
  // environment — the pre-sharing per-phase behavior.
  data::Relation baseline_data = ds.dirty.Clone();
  FixJournal baseline_journal;
  {
    core::MatchEnvironment env(ds.rules, ds.master);
    core::CRepairOptions copts;
    copts.eta = eta;
    copts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                              kCRepairPhase);
    core::CRepair(&baseline_data, env, copts);
  }
  {
    core::MatchEnvironment env(ds.rules, ds.master);
    core::ERepairOptions eopts;
    eopts.eta = eta;
    eopts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                              kERepairPhase);
    core::ERepair(&baseline_data, env, eopts);
  }
  {
    core::MatchEnvironment env(ds.rules, ds.master);
    core::HRepairOptions hopts;
    hopts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                              kHRepairPhase);
    core::HRepair(&baseline_data, env, hopts);
  }
  Outcome baseline = Materialize(baseline_journal, baseline_data);

  // Shared environment: the engine's session pipeline, one matcher set for
  // all three phases.
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds, eta);
  ASSERT_NE(engine, nullptr);
  data::Relation shared_data = ds.dirty.Clone();
  auto result = engine->NewSession().Run(&shared_data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Outcome shared = Materialize(result->journal, shared_data);

  EXPECT_FALSE(shared.journal_csv.empty());
  EXPECT_EQ(shared.journal_text, baseline.journal_text);
  EXPECT_EQ(shared.journal_csv, baseline.journal_csv);
  EXPECT_EQ(shared.repaired, baseline.repaired);
}

INSTANTIATE_TEST_SUITE_P(Datasets, MatchEnvironmentParity,
                         ::testing::Values("HOSP", "DBLP", "TPCH"));

TEST(MatchEnvironmentTest, MatchersExistExactlyForMdRules) {
  gen::Dataset ds = MakeDataset("HOSP", 23);
  core::MatchEnvironment env(ds.rules, ds.master);
  EXPECT_EQ(env.num_matchers(), static_cast<int>(ds.rules.mds().size()));
  for (rules::RuleId rule = 0; rule < ds.rules.num_rules(); ++rule) {
    if (ds.rules.IsCfd(rule)) {
      EXPECT_EQ(env.matcher(rule), nullptr);
    } else {
      ASSERT_NE(env.matcher(rule), nullptr);
      EXPECT_EQ(&env.matcher(rule)->md(), &ds.rules.md(rule));
    }
  }
}

TEST(MatchEnvironmentTest, EngineBuildsIndexesAtMostOncePerLifetime) {
  gen::Dataset ds = MakeDataset("DBLP", 31);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds, 1.0);
  ASSERT_NE(engine, nullptr);

  const uint64_t before = core::MdMatcher::ConstructedCount();
  engine->Warmup();
  const uint64_t after_warmup = core::MdMatcher::ConstructedCount();
  EXPECT_EQ(after_warmup - before, ds.rules.mds().size());

  // Every run — two on one session, one on a fresh session — reuses the
  // warm environment: the build counter must not move again.
  Session session = engine->NewSession();
  data::Relation copy1 = ds.dirty.Clone();
  data::Relation copy2 = ds.dirty.Clone();
  data::Relation copy3 = ds.dirty.Clone();
  auto r1 = session.Run(&copy1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = session.Run(&copy2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto r3 = engine->NewSession().Run(&copy3);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(core::MdMatcher::ConstructedCount(), after_warmup);
}

TEST(MatchEnvironmentTest, WarmRerunsAreDeterministic) {
  gen::Dataset ds = MakeDataset("HOSP", 41);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds, 1.0);
  ASSERT_NE(engine, nullptr);
  Session session = engine->NewSession();

  data::Relation cold_copy = ds.dirty.Clone();
  data::Relation warm_copy = ds.dirty.Clone();
  auto cold = session.Run(&cold_copy);   // pays the index build
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = session.Run(&warm_copy);   // fully warm indexes and memos
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  Outcome cold_outcome = Materialize(cold->journal, cold_copy);
  Outcome warm_outcome = Materialize(warm->journal, warm_copy);
  EXPECT_FALSE(cold_outcome.journal_csv.empty());
  EXPECT_EQ(cold_outcome.journal_text, warm_outcome.journal_text);
  EXPECT_EQ(cold_outcome.journal_csv, warm_outcome.journal_csv);
  EXPECT_EQ(cold_outcome.repaired, warm_outcome.repaired);
}

TEST(MatchEnvironmentTest, RunOnForeignRelationValidatesArguments) {
  gen::Dataset ds = MakeDataset("HOSP", 7);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds, 0.8);
  ASSERT_NE(engine, nullptr);
  Session session = engine->NewSession();

  auto null_result = session.Run(nullptr);
  EXPECT_EQ(null_result.status().code(), StatusCode::kInvalidArgument);

  data::Relation wrong(data::MakeSchema("other", {"x", "y"}));
  wrong.AddRow({"1", "2"});
  auto mismatch = session.Run(&wrong);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace uniclean
