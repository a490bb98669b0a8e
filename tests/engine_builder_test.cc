// Tests for the library's public path: EngineBuilder validation, phase
// pipeline execution through Session::Run, progress observation, fix
// journaling, and parity with the direct core-phase sequence.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "data/csv.h"
#include "gen/dataset.h"
#include "paper_example.h"
#include "uniclean/builtin_phases.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

using data::Relation;
using data::Value;

const char kPaperRules[] =
    "CFD phi1: AC='131' -> city='Edi'\n"
    "CFD phi2: AC='020' -> city='Ldn'\n"
    "CFD phi3: city, phn -> St, AC, post\n"
    "CFD phi4: FN='Bob' -> FN='Robert'\n"
    "MD psi: LN=LN & city=city & St=St & post=zip & FN ~jw:0.6 FN "
    "-> FN:=FN, phn:=tel\n";

EngineBuilder PaperBuilder() {
  EngineBuilder builder;
  builder.WithDataSchema(uniclean::testing::TranSchema())
      .WithMaster(uniclean::testing::CardMaster())
      .WithRuleText(kPaperRules)
      .WithEta(0.8);
  return builder;
}

/// Builds `builder`'s engine and cleans `*d` in one session.
Result<CleanResult> BuildAndRun(EngineBuilder builder, Relation* d) {
  UC_ASSIGN_OR_RETURN(std::shared_ptr<CleanEngine> engine,
                      builder.BuildEngine());
  return engine->NewSession().Run(d);
}

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

TEST(EngineBuilderTest, RejectsEtaOutOfRange) {
  for (double eta : {-0.1, 1.5}) {
    auto engine = PaperBuilder().WithEta(eta).BuildEngine();
    ASSERT_FALSE(engine.ok()) << "eta = " << eta;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineBuilderTest, RejectsNegativeDelta1) {
  auto engine = PaperBuilder().WithDelta1(-1).BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsDelta2OutOfRange) {
  auto engine = PaperBuilder().WithDelta2(2.0).BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsMissingMaster) {
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithRuleText(kPaperRules)
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsMissingRules) {
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithMaster(uniclean::testing::CardMaster())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsSchemaMismatchBetweenRulesAndData) {
  // Rules normalized against the tran/card schemas, a declared data schema
  // that differs: the builder must reject instead of cleaning garbage.
  auto rules = rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                                   uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  auto engine = EngineBuilder()
                    .WithDataSchema(data::MakeSchema("other", {"X", "Y"}))
                    .WithMaster(uniclean::testing::CardMaster())
                    .WithRules(std::move(rules).value())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsMasterSchemaMismatch) {
  auto rules = rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                                   uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithMaster(uniclean::testing::TranDirty())  // wrong side
                    .WithRules(std::move(rules).value())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsInconsistentRulesWhenCheckingRequested) {
  const char kContradiction[] =
      "CFD c1: AC -> city='Edi'\n"
      "CFD c2: AC -> city='Ldn'\n";
  auto unchecked = PaperBuilder().WithRuleText(kContradiction).BuildEngine();
  EXPECT_TRUE(unchecked.ok()) << unchecked.status().ToString();

  auto checked = PaperBuilder()
                     .WithRuleText(kContradiction)
                     .CheckConsistency()
                     .BuildEngine();
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, RejectsBadRuleSyntaxWithParserStatus) {
  auto engine = PaperBuilder().WithRuleText("CFD broken").BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, MissingCsvInputsReportNotFound) {
  auto engine =
      PaperBuilder()
          .WithMasterCsv(::testing::TempDir() + "/no_such_file.csv")
          .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(EngineBuilderTest, ParsedRulesNeedNoDataSchema) {
  // Engines bind no data relation: parsed rules carry their own data schema,
  // so an engine built without WithDataSchema cleans exactly as one built
  // with it.
  auto rules = rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                                   uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  auto engine = EngineBuilder()
                    .WithMaster(uniclean::testing::CardMaster())
                    .WithRules(std::move(rules).value())
                    .WithEta(0.8)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Relation reference = uniclean::testing::TranDirty();
  auto expected = BuildAndRun(PaperBuilder(), &reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(d.CellDiffCount(reference), 0);
  std::ostringstream got;
  std::ostringstream want;
  ASSERT_TRUE(result->journal.WriteCsv(got).ok());
  ASSERT_TRUE(expected->journal.WriteCsv(want).ok());
  EXPECT_EQ(got.str(), want.str());
  EXPECT_GT(result->total_fixes(), 0);
}

// ---------------------------------------------------------------------------
// Confidence CSVs (applied to each relation before Session::Run)
// ---------------------------------------------------------------------------

TEST(ConfidenceCsvTest, RejectsMalformedConfidenceCsv) {
  std::string path = WriteTempFile(
      "bad_conf.csv", "FN,LN,St,city,AC,post,phn,gd,item,when,where\n"
                      "0.5,abc,0,0,0,0,0,0,0,0,0\n");
  Relation d = uniclean::testing::TranDirty();
  Status s = data::ReadConfidenceCsvFile(path, &d);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, RejectsConfidenceOutOfRange) {
  std::string row = "0,0,0,0,0,0,0,0,0,0,1.5";
  std::string text = "FN,LN,St,city,AC,post,phn,gd,item,when,where\n";
  for (int i = 0; i < 4; ++i) text += row + "\n";
  std::string path = WriteTempFile("oob_conf.csv", text);
  Relation d = uniclean::testing::TranDirty();
  Status s = data::ReadConfidenceCsvFile(path, &d);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, StreamFormAppliesConfidences) {
  Relation d(data::MakeSchema("t", {"a", "b"}));
  d.AddRow({"x", "y"});
  d.AddRow({"z", "w"});
  std::istringstream in("a,b\n0.5,\n\\N,1\n");
  ASSERT_TRUE(data::ReadConfidenceCsv(in, &d).ok());
  EXPECT_EQ(d.tuple(0).confidence(0), 0.5);
  EXPECT_EQ(d.tuple(0).confidence(1), 0.0);
  EXPECT_EQ(d.tuple(1).confidence(0), 0.0);
  EXPECT_EQ(d.tuple(1).confidence(1), 1.0);
}

TEST(ConfidenceCsvTest, RejectsHeaderNamesThatDifferFromTheSchema) {
  Relation d(data::MakeSchema("t", {"a", "b"}));
  d.AddRow({"x", "y"});
  std::istringstream in("a,WRONG\n0.5,0.5\n");
  Status s = data::ReadConfidenceCsv(in, &d);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("WRONG"), std::string::npos) << s.ToString();
}

TEST(ConfidenceCsvTest, RejectsMissingHeaderRow) {
  Relation d(data::MakeSchema("t", {"a"}));
  std::istringstream in("\n");
  EXPECT_EQ(data::ReadConfidenceCsv(in, &d).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfidenceCsvTest, RejectsNan) {
  Relation d(data::MakeSchema("t", {"a"}));
  d.AddRow({"x"});
  std::istringstream in("a\nnan\n");
  EXPECT_EQ(data::ReadConfidenceCsv(in, &d).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Running the pipeline
// ---------------------------------------------------------------------------

TEST(SessionPipelineTest, RunsPaperExampleAndJournalsEveryFix) {
  Relation d = uniclean::testing::TranDirty();
  auto result = BuildAndRun(PaperBuilder(), &d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The reference: the same pipeline through the direct phase calls.
  Relation reference = uniclean::testing::TranDirty();
  auto rules =
      rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                          uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  Relation master = uniclean::testing::CardMaster();
  core::MatchEnvironment env(rules.value(), master);
  core::CRepairOptions copts;
  copts.eta = 0.8;
  auto cstats = core::CRepair(&reference, env, copts);
  core::ERepairOptions eopts;
  eopts.eta = 0.8;
  auto estats = core::ERepair(&reference, env, eopts);
  auto hstats = core::HRepair(&reference, env, {});

  // Same repaired relation, and per-phase journal counts equal to the
  // engines' fix counts.
  EXPECT_EQ(d.CellDiffCount(reference), 0);
  EXPECT_EQ(result->journal.CountForPhase(CRepairPhase::kName),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName),
            hstats.possible_fixes);
  EXPECT_EQ(result->total_fixes(), static_cast<int>(result->journal.size()));
  EXPECT_GT(result->journal.size(), 0u);

  // Every journal entry names an existing attribute, a phase, and records a
  // real change.
  for (const FixEntry& fix : result->journal.entries()) {
    EXPECT_GE(fix.tuple, 0);
    EXPECT_LT(fix.tuple, d.size());
    EXPECT_EQ(fix.attribute, d.schema().attribute_name(fix.attr));
    EXPECT_FALSE(fix.phase.empty());
    EXPECT_NE(fix.old_value, fix.new_value);
  }
}

TEST(SessionPipelineTest, JournalPhaseCountsMatchCoreStatsOnHospSample) {
  // On the HOSP sample, the journal's per-phase fix counts, the phases'
  // counters and the matches equal what the direct cRepair -> eRepair ->
  // hRepair sequence over one MatchEnvironment reports for the same inputs.
  gen::GeneratorConfig config;
  config.num_tuples = 80;
  config.master_size = 40;
  config.seed = 7;
  gen::Dataset ds = gen::GenerateHosp(config);

  Relation reference = ds.dirty.Clone();
  core::MatchEnvironment env(ds.rules, ds.master);
  core::CRepairOptions copts;
  copts.eta = 1.0;
  const core::CRepairStats cstats = core::CRepair(&reference, env, copts);
  core::ERepairOptions eopts;
  eopts.eta = 1.0;
  const core::ERepairStats estats = core::ERepair(&reference, env, eopts);
  const core::HRepairStats hstats = core::HRepair(&reference, env, {});
  std::vector<std::pair<data::TupleId, data::TupleId>> core_matches;
  for (const auto* matches :
       {&cstats.md_matches, &estats.md_matches, &hstats.md_matches}) {
    core_matches.insert(core_matches.end(), matches->begin(), matches->end());
  }
  std::sort(core_matches.begin(), core_matches.end());
  core_matches.erase(std::unique(core_matches.begin(), core_matches.end()),
                     core_matches.end());

  Relation d = ds.dirty.Clone();
  EngineBuilder builder;
  builder.WithDataSchema(ds.dirty.schema_ptr())
      .WithMaster(&ds.master)
      .WithRules(&ds.rules)
      .WithEta(1.0);
  auto result = BuildAndRun(std::move(builder), &d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->journal.CountForPhase(CRepairPhase::kName),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName),
            hstats.possible_fixes);
  const PhaseStats* crepair = result->phase(CRepairPhase::kName);
  const PhaseStats* erepair = result->phase(ERepairPhase::kName);
  const PhaseStats* hrepair = result->phase(HRepairPhase::kName);
  ASSERT_NE(crepair, nullptr);
  ASSERT_NE(erepair, nullptr);
  ASSERT_NE(hrepair, nullptr);
  EXPECT_EQ(crepair->counter("conflicts"), cstats.conflicts);
  EXPECT_EQ(erepair->counter("groups_resolved"), estats.groups_resolved);
  EXPECT_EQ(hrepair->counter("anomalies"), hstats.anomalies);
  EXPECT_EQ(d.CellDiffCount(reference), 0);
  EXPECT_EQ(result->AllMatches(), core_matches);
  EXPECT_GT(result->total_fixes(), 0);
}

TEST(SessionPipelineTest, RepairsTheCallersRelationInPlace) {
  Relation d = uniclean::testing::TranDirty();
  ASSERT_TRUE(BuildAndRun(PaperBuilder(), &d).ok());
  // Example 1.1's first deterministic fix lands in the caller's relation.
  data::AttributeId city = d.schema().MustFindAttribute("city");
  EXPECT_EQ(d.tuple(0).value(city), Value("Edi"));
}

TEST(SessionPipelineTest, PhaseSubsetRunsOnlySelectedPhases) {
  auto engine =
      PaperBuilder().WithDefaultPhases(true, false, false).BuildEngine();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->PhaseNames(), std::vector<std::string>{"cRepair"});
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->phases.size(), 1u);
  EXPECT_EQ(result->phases[0].phase, "cRepair");
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName), 0);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName), 0);
}

TEST(SessionPipelineTest, ProgressCallbackSeesEveryPhaseInOrder) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<std::string> events;
  session.set_progress_callback([&](const PhaseEvent& event) {
    std::string tag =
        event.kind == PhaseEvent::Kind::kPhaseStarted ? "start:" : "finish:";
    events.push_back(tag + std::string(event.phase));
    EXPECT_EQ(event.total, 3);
    EXPECT_NE(event.data, nullptr);
    if (event.kind == PhaseEvent::Kind::kPhaseFinished) {
      ASSERT_NE(event.stats, nullptr);
      EXPECT_EQ(event.stats->phase, event.phase);
    }
  });
  Relation d = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&d).ok());
  EXPECT_EQ(events,
            (std::vector<std::string>{"start:cRepair", "finish:cRepair",
                                      "start:eRepair", "finish:eRepair",
                                      "start:hRepair", "finish:hRepair"}));
}

TEST(SessionPipelineTest, ProgressCallbackIsPerSession) {
  // The callback belongs to the session it was set on: a sibling session of
  // the same engine neither fires it nor inherits it.
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session observed = (*engine)->NewSession();
  Session sibling = (*engine)->NewSession();
  int events = 0;
  observed.set_progress_callback([&](const PhaseEvent&) { ++events; });

  Relation d1 = uniclean::testing::TranDirty();
  ASSERT_TRUE(sibling.Run(&d1).ok());
  EXPECT_EQ(events, 0);
  Relation d2 = uniclean::testing::TranDirty();
  ASSERT_TRUE(observed.Run(&d2).ok());
  EXPECT_EQ(events, 6);  // started + finished for each of the three phases

  observed.set_progress_callback(nullptr);
  Relation d3 = uniclean::testing::TranDirty();
  ASSERT_TRUE(observed.Run(&d3).ok());
  EXPECT_EQ(events, 6);
}

// ---------------------------------------------------------------------------
// Pluggable phases
// ---------------------------------------------------------------------------

/// A custom phase that uppercases one attribute and journals its writes.
class UppercaseCityPhase : public Phase {
 public:
  std::string_view name() const override { return "uppercaseCity"; }

  Result<PhaseStats> Run(PipelineContext* ctx) override {
    auto city = ctx->data->schema().FindAttribute("city");
    if (!city.ok()) return city.status();
    PhaseStats stats;
    for (data::TupleId t = 0; t < ctx->data->size(); ++t) {
      const Value& old_value = ctx->data->tuple(t).value(*city);
      if (old_value.is_null()) continue;
      std::string upper = old_value.str();
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      if (upper == old_value.str()) continue;
      FixEntry fix;
      fix.tuple = t;
      fix.attr = *city;
      fix.attribute = "city";
      fix.old_value = old_value;
      fix.new_value = Value(upper);
      fix.phase = std::string(name());
      ctx->journal->Append(fix);
      ctx->data->mutable_tuple(t).set_value(*city, Value(upper));
      ++stats.fixes;
    }
    return stats;
  }
};

/// A phase that always fails, to exercise Status propagation.
class FailingPhase : public Phase {
 public:
  std::string_view name() const override { return "failing"; }
  Result<PhaseStats> Run(PipelineContext*) override {
    return Status::Unimplemented("not today");
  }
};

/// A phase that counts its own Run calls in instance state.
class RunCountingPhase : public Phase {
 public:
  std::string_view name() const override { return "runCounter"; }
  Result<PhaseStats> Run(PipelineContext*) override {
    PhaseStats stats;
    stats.counters = {{"runs", ++runs_}};
    return stats;
  }

 private:
  int runs_ = 0;
};

template <typename P>
PhaseFactory FactoryOf() {
  return [] { return std::make_unique<P>(); };
}

TEST(SessionPipelineTest, CustomPhaseAppendsAfterDefaults) {
  auto engine = PaperBuilder()
                    .AddPhaseFactory(FactoryOf<UppercaseCityPhase>())
                    .BuildEngine();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->PhaseNames(),
            (std::vector<std::string>{"cRepair", "eRepair", "hRepair",
                                      "uppercaseCity"}));
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PhaseStats* custom = result->phase("uppercaseCity");
  ASSERT_NE(custom, nullptr);
  EXPECT_GT(custom->fixes, 0);
  EXPECT_EQ(result->journal.CountForPhase("uppercaseCity"), custom->fixes);
  data::AttributeId city = d.schema().MustFindAttribute("city");
  EXPECT_EQ(d.tuple(0).value(city), Value("EDI"));
}

TEST(SessionPipelineTest, CustomPipelineReplacesDefaults) {
  auto engine = PaperBuilder()
                    .WithPhaseFactories({FactoryOf<UppercaseCityPhase>()})
                    .BuildEngine();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->PhaseNames(),
            std::vector<std::string>{"uppercaseCity"});
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.size(), 1u);
}

TEST(SessionPipelineTest, SessionsOwnTheirPhaseInstances) {
  // Each session gets fresh phase instances from the engine's factories,
  // so per-phase state persists across one session's runs (and moves with
  // it) but is never shared with a sibling session.
  auto engine = PaperBuilder()
                    .WithPhaseFactories({FactoryOf<RunCountingPhase>()})
                    .BuildEngine();
  ASSERT_TRUE(engine.ok());
  auto runs_seen = [](Session* session) -> int64_t {
    Relation d = uniclean::testing::TranDirty();
    auto result = session->Run(&d);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result->phase("runCounter") == nullptr) return -1;
    return result->phase("runCounter")->counter("runs");
  };
  Session first = (*engine)->NewSession();
  Session second = (*engine)->NewSession();
  EXPECT_EQ(runs_seen(&first), 1);
  EXPECT_EQ(runs_seen(&first), 2);
  EXPECT_EQ(runs_seen(&second), 1);
  Session moved = std::move(first);
  EXPECT_EQ(runs_seen(&moved), 3);
}

TEST(SessionPipelineTest, FailingPhaseAbortsAndAnnotatesStatus) {
  auto engine = PaperBuilder()
                    .WithPhaseFactories({FactoryOf<CRepairPhase>(),
                                         FactoryOf<FailingPhase>(),
                                         FactoryOf<HRepairPhase>()})
                    .BuildEngine();
  ASSERT_TRUE(engine.ok());
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find("failing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FixJournal serialization
// ---------------------------------------------------------------------------

TEST(FixJournalTest, TextAndCsvSerialization) {
  FixJournal journal;
  FixEntry a;
  a.tuple = 2;
  a.attr = 3;
  a.attribute = "city";
  a.old_value = Value("Edi, UK");  // needs CSV quoting
  a.new_value = Value("Ldn");
  a.phase = "cRepair";
  a.rule = "phi2";
  journal.Append(a);
  FixEntry b;
  b.tuple = 4;
  b.attr = 5;
  b.attribute = "post";
  b.old_value = Value("WC1E \"7HX\"");
  b.new_value = Value::Null();
  b.phase = "hRepair";
  journal.Append(b);

  std::ostringstream text;
  ASSERT_TRUE(journal.WriteText(text).ok());
  EXPECT_EQ(text.str(),
            "row 2 city: 'Edi, UK' -> 'Ldn' [cRepair phi2]\n"
            "row 4 post: 'WC1E \"7HX\"' -> '\\N' [hRepair]\n");

  std::ostringstream csv;
  ASSERT_TRUE(journal.WriteCsv(csv).ok());
  EXPECT_EQ(csv.str(),
            "tuple,attribute,old,new,phase,rule\n"
            "2,city,\"Edi, UK\",Ldn,cRepair,phi2\n"
            "4,post,\"WC1E \"\"7HX\"\"\",\\N,hRepair,\n");

  EXPECT_EQ(journal.CountForPhase("cRepair"), 1);
  EXPECT_EQ(journal.CountForPhase("eRepair"), 0);
  auto counts = journal.CountsByPhase();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::pair<std::string, int>{"cRepair", 1}));
  EXPECT_EQ(counts[1], (std::pair<std::string, int>{"hRepair", 1}));
}

TEST(FixJournalTest, JournalCsvRoundTripsThroughCsvReader) {
  // The journal's CSV quoting must agree with the library's own reader.
  FixJournal journal;
  FixEntry fix;
  fix.tuple = 0;
  fix.attr = 0;
  fix.attribute = "A";
  fix.old_value = Value("x,\"y\",z");
  fix.new_value = Value::Null();
  fix.phase = "p";
  fix.rule = "r";
  journal.Append(fix);
  std::string path = ::testing::TempDir() + "/journal_roundtrip.csv";
  ASSERT_TRUE(journal.WriteCsvFile(path).ok());

  auto schema =
      data::MakeSchema("journal",
                       {"tuple", "attribute", "old", "new", "phase", "rule"});
  auto read = data::ReadCsvFile(path, schema);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 1);
  EXPECT_EQ(read->tuple(0).value(1), Value("A"));
  EXPECT_EQ(read->tuple(0).value(2), Value("x,\"y\",z"));
  EXPECT_TRUE(read->tuple(0).value(3).is_null());
  EXPECT_EQ(read->tuple(0).value(4), Value("p"));
  EXPECT_EQ(read->tuple(0).value(5), Value("r"));
}

TEST(FixJournalTest, ReadCsvRoundTripsCommasQuotesAndNewlines) {
  FixJournal journal;
  FixEntry fix;
  fix.tuple = 7;
  fix.attr = 1;
  fix.attribute = "name";
  fix.old_value = Value("a,\"b\"");  // the RFC-4180 acid test
  fix.new_value = Value("line1\nline2");
  fix.phase = "eRepair";
  fix.rule = "md,1";
  journal.Append(fix);
  FixEntry null_fix;
  null_fix.tuple = 8;
  null_fix.attr = 2;
  null_fix.attribute = "city";
  null_fix.old_value = Value("Edi");
  null_fix.new_value = Value::Null();
  null_fix.phase = "hRepair";
  journal.Append(null_fix);

  std::ostringstream out;
  ASSERT_TRUE(journal.WriteCsv(out).ok());
  std::istringstream in(out.str());
  auto parsed = FixJournal::ReadCsv(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const FixEntry& e0 = parsed->entries()[0];
  EXPECT_EQ(e0.tuple, 7);
  EXPECT_EQ(e0.attribute, "name");
  EXPECT_EQ(e0.old_value, Value("a,\"b\""));
  EXPECT_EQ(e0.new_value, Value("line1\nline2"));
  EXPECT_EQ(e0.phase, "eRepair");
  EXPECT_EQ(e0.rule, "md,1");
  const FixEntry& e1 = parsed->entries()[1];
  EXPECT_EQ(e1.tuple, 8);
  EXPECT_TRUE(e1.new_value.is_null());
  EXPECT_TRUE(e1.rule.empty());

  // Serializing the parsed journal reproduces the original bytes.
  std::ostringstream again;
  ASSERT_TRUE(parsed->WriteCsv(again).ok());
  EXPECT_EQ(again.str(), out.str());
}

TEST(FixJournalTest, ReadCsvRejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in("not,the,journal,header\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in(
        "tuple,attribute,old,new,phase,rule\nx,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in("tuple,attribute,old,new,phase,rule\n1,A,o,n\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    // Negative and int-overflowing tuple ids are rejected, not truncated.
    std::istringstream in("tuple,attribute,old,new,phase,rule\n-3,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in(
        "tuple,attribute,old,new,phase,rule\n4294967303,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace uniclean
