// Quickstart: the paper's running example (Fig. 1 / Example 1.1).
//
// A UK bank holds master data `card` (credit-card holders) and transaction
// records `tran`. Tuples t3 and t4 are suspected to be the same person —
// purchases in the UK and the US at about the same time would mean fraud.
// No single rule matches them directly, but interleaved repairing (CFDs)
// and matching (MD against master data) identifies them.

#include <cstdio>
#include <string>

#include "uniclean/uniclean.h"

namespace {

using namespace uniclean;  // NOLINT

data::SchemaPtr CardSchema() {
  return data::MakeSchema(
      "card", {"FN", "LN", "St", "city", "AC", "zip", "tel", "dob", "gd"});
}

data::SchemaPtr TranSchema() {
  return data::MakeSchema("tran", {"FN", "LN", "St", "city", "AC", "post",
                                   "phn", "gd", "item", "when", "where"});
}

data::Relation MasterData() {
  data::Relation dm(CardSchema());
  dm.AddRow({"Mark", "Smith", "10 Oak St", "Edi", "131", "EH8 9LE",
             "3256778", "10/10/1987", "Male"},
            1.0);
  dm.AddRow({"Robert", "Brady", "5 Wren St", "Ldn", "020", "WC1H 9SE",
             "3887644", "12/08/1975", "Male"},
            1.0);
  return dm;
}

data::Relation Transactions() {
  data::Relation d(TranSchema());
  auto add = [&d](const std::vector<std::string>& values,
                  const std::vector<double>& cf, int null_at) {
    data::Tuple t(d.schema().arity());
    for (int a = 0; a < d.schema().arity(); ++a) {
      t.set_value(a, a == null_at
                         ? data::Value::Null()
                         : data::Value(values[static_cast<size_t>(a)]));
      t.set_confidence(a, cf[static_cast<size_t>(a)]);
    }
    d.AddTuple(std::move(t));
  };
  add({"M.", "Smith", "10 Oak St", "Ldn", "131", "EH8 9LE", "9999999",
       "Male", "watch, 350 GBP", "11am 28/08/10", "UK"},
      {0.9, 1.0, 0.9, 0.5, 0.9, 0.9, 0.0, 0.8, 1.0, 1.0, 1.0}, -1);
  add({"Max", "Smith", "Po Box 25", "Edi", "131", "EH8 9AB", "3256778",
       "Male", "DVD, 800 INR", "8pm 28/09/10", "India"},
      {0.7, 1.0, 0.5, 0.9, 0.7, 0.6, 0.8, 0.8, 1.0, 1.0, 1.0}, -1);
  add({"Bob", "Brady", "5 Wren St", "Edi", "020", "WC1H 9SE", "3887834",
       "Male", "iPhone, 599 GBP", "6pm 06/11/09", "UK"},
      {0.6, 1.0, 0.9, 0.2, 0.9, 0.8, 0.9, 0.8, 1.0, 1.0, 1.0}, -1);
  add({"Robert", "Brady", "", "Ldn", "020", "WC1E 7HX", "3887644", "Male",
       "ring, 2,100 USD", "1pm 06/11/09", "USA"},
      {0.7, 1.0, 0.0, 0.5, 0.7, 0.3, 0.7, 0.8, 1.0, 1.0, 1.0}, 2);
  return d;
}

void PrintRelation(const char* title, const data::Relation& d) {
  std::printf("%s\n", title);
  for (int t = 0; t < d.size(); ++t) {
    std::printf("  t%d:", t + 1);
    for (int a = 0; a < d.schema().arity(); ++a) {
      const data::Value& v = d.tuple(t).value(a);
      char mark = ' ';
      switch (d.tuple(t).mark(a)) {
        case data::FixMark::kDeterministic:
          mark = '*';
          break;
        case data::FixMark::kReliable:
          mark = '+';
          break;
        case data::FixMark::kPossible:
          mark = '?';
          break;
        default:
          break;
      }
      std::printf(" %s=%s%c", d.schema().attribute_name(a).c_str(),
                  v.is_null() ? "NULL" : v.str().c_str(), mark);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // The data quality rules of Example 1.1 (ϕ1–ϕ4 and the MD ψ).
  const std::string rule_text = R"(
CFD phi1: AC='131' -> city='Edi'
CFD phi2: AC='020' -> city='Ldn'
CFD phi3: city, phn -> St, AC, post
CFD phi4: FN='Bob' -> FN='Robert'
MD psi: LN=LN & city=city & St=St & post=zip & FN ~jw:0.6 FN -> FN:=FN, phn:=tel
)";
  data::Relation d = Transactions();
  PrintRelation("== Dirty transactions (Fig. 1(b)) ==", d);

  // Build the shared engine: the builder validates the thresholds, parses
  // the rules against the declared schemas and — with CheckConsistency —
  // verifies the rules are consistent before cleaning (§4.1). The engine is
  // immutable and thread-safe; each run is a cheap Session against it.
  auto engine = EngineBuilder()
                    .WithDataSchema(d.schema_ptr())
                    .WithMaster(MasterData())
                    .WithRuleText(rule_text)
                    .WithEta(0.8)
                    .CheckConsistency()
                    .BuildEngine();
  if (!engine.ok()) {
    std::printf("config error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrules consistent: yes\n");

  Session session = (*engine)->NewSession();
  auto result = session.Run(&d);  // cleaned in place
  if (!result.ok()) {
    std::printf("run error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "\nfixes: %d deterministic (*), %d reliable (+), %d possible (?)\n\n",
      result->journal.CountForPhase(kCRepairPhase),
      result->journal.CountForPhase(kERepairPhase),
      result->journal.CountForPhase(kHRepairPhase));
  PrintRelation("== Repaired transactions ==", d);

  // The structured journal records every fix with its justifying rule.
  std::printf("\n== Fix journal ==\n");
  for (const FixEntry& fix : result->journal.entries()) {
    std::printf("  t%d[%s]: '%s' -> '%s' (%s, rule %s)\n", fix.tuple + 1,
                fix.attribute.c_str(), fix.old_value.ToString().c_str(),
                fix.new_value.ToString().c_str(), fix.phase.c_str(),
                fix.rule.empty() ? "-" : fix.rule.c_str());
  }

  // The fraud check of Example 1.1: do t3 and t4 refer to the same person?
  bool same_person = true;
  for (const char* attr : {"FN", "LN", "city", "AC", "post", "phn"}) {
    data::AttributeId a = d.schema().MustFindAttribute(attr);
    if (!data::Value::SqlEquals(d.tuple(2).value(a), d.tuple(3).value(a))) {
      same_person = false;
    }
  }
  std::printf(
      "\nt3 and t4 are %s -> %s\n", same_person ? "the SAME person" : "different people",
      same_person
          ? "purchases in the UK and the USA within hours: FRAUD detected"
          : "no fraud evidence");
  return same_person ? 0 : 1;
}
