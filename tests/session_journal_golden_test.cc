// Golden journals for the library path. For each paper dataset a pinned
// generator sample is cleaned through EngineBuilder::BuildEngine +
// Session::Run, and the FixJournal CSV is compared against
// tests/golden/<dataset>_session_journal.csv. Data rows are sorted before
// the comparison (the header stays first), so the check pins the fix
// content — cells, values, phases, rules — not the emission order.
//
// To regenerate the goldens after an intentional pipeline change, run the
// test once and follow the `cp` command printed in the failure message.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/dataset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

gen::Dataset Generate(const std::string& name) {
  gen::GeneratorConfig config;
  config.num_tuples = 200;
  config.master_size = 100;
  config.seed = 2011;
  if (name == "hosp") return gen::GenerateHosp(config);
  if (name == "dblp") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

/// `csv` with its first (header) line kept in place and the rest sorted.
std::string SortRows(const std::string& csv) {
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  std::sort(rows.begin(), rows.end());
  std::string out = header + "\n";
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

class SessionJournalGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionJournalGolden, MatchesCheckedInJournal) {
  const std::string name = GetParam();
  gen::Dataset ds = Generate(name);
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Session session = (*engine)->NewSession();
  auto result = session.Run(&ds.dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->journal.size(), 0u);

  std::ostringstream csv;
  ASSERT_TRUE(result->journal.WriteCsv(csv).ok());
  const std::string actual = SortRows(csv.str());

  const std::string golden_path =
      std::string(UNICLEAN_GOLDEN_DIR) + "/" + name + "_session_journal.csv";
  std::ifstream golden_in(golden_path, std::ios::binary);
  std::ostringstream golden;
  golden << golden_in.rdbuf();
  if (actual != golden.str()) {
    const std::string actual_path =
        ::testing::TempDir() + name + "_session_journal.csv";
    std::ofstream(actual_path, std::ios::binary) << actual;
    ADD_FAILURE() << name << " journal differs from " << golden_path
                  << "\nIf the change is intended: cp " << actual_path << " "
                  << golden_path;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, SessionJournalGolden,
                         ::testing::Values("hosp", "dblp", "tpch"));

}  // namespace
}  // namespace uniclean
