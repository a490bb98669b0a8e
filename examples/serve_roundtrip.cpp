// The serving daemon in-process: start a serve::Daemon on an ephemeral
// port, connect a serve::Client, batch-clean a generated HOSP relation over
// the wire, stream an incremental DELTA into the tracked session, hot-reload
// the ruleset, and read the STATS document — the whole unicleand protocol
// without leaving one process. The wire results are checked against an
// in-process Session run on the same bytes: the journals must match exactly.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "gen/dataset.h"
#include "serve/client.h"
#include "serve/server.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return out.good();
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main() {
  // The daemon rebuilds engines from files on RELOAD, so the generated
  // dataset goes to disk first (as a deployment's would be).
  gen::GeneratorConfig config;
  config.num_tuples = 250;
  config.master_size = 80;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 11;
  gen::Dataset ds = gen::GenerateHosp(config);

  const std::string dir = "serve_roundtrip_data";
  std::remove((dir + "/dirty.csv").c_str());
  if (::system(("mkdir -p " + dir).c_str()) != 0) return 1;
  if (!data::WriteCsvFile(dir + "/dirty.csv", ds.dirty).ok() ||
      !data::WriteCsvFile(dir + "/master.csv", ds.master).ok() ||
      !WriteTextFile(dir + "/rules.txt", ds.rule_text)) {
    std::printf("cannot write the dataset files\n");
    return 1;
  }
  const std::string dirty_csv = SlurpFile(dir + "/dirty.csv");

  serve::RulesetConfig ruleset;
  ruleset.name = "hosp";
  ruleset.master_csv = dir + "/master.csv";
  ruleset.rules_file = dir + "/rules.txt";
  ruleset.schema_csv = dir + "/dirty.csv";

  serve::DaemonOptions options;
  options.port = 0;  // ephemeral
  options.n_workers = 2;
  serve::Daemon daemon(options, {ruleset});
  Status started = daemon.Start();
  if (!started.ok()) {
    std::printf("daemon start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("daemon listening on port %d\n", daemon.port());

  auto connected = serve::Client::Connect("127.0.0.1", daemon.port());
  if (!connected.ok()) {
    std::printf("connect failed: %s\n", connected.status().ToString().c_str());
    return 1;
  }
  serve::Client client = std::move(connected).value();

  // 1. Batch clean over the wire, tracked for the delta that follows.
  serve::CleanRequest clean;
  clean.data_csv = dirty_csv;
  clean.track = true;
  auto cleaned = client.Clean(clean);
  if (!cleaned.ok()) {
    std::printf("clean failed: %s\n", cleaned.status().ToString().c_str());
    return 1;
  }
  std::printf("wire clean: %u fixes (%s), session %llu\n",
              cleaned->total_fixes, cleaned->phase_summary.c_str(),
              static_cast<unsigned long long>(cleaned->session_id));

  // The same bytes cleaned in-process must journal identically.
  auto schema = data::InferCsvSchema(dir + "/dirty.csv", "data");
  auto engine = EngineBuilder()
                    .WithDataSchema(*schema)
                    .WithMasterCsv(ruleset.master_csv)
                    .WithRulesFile(ruleset.rules_file)
                    .BuildEngine();
  if (!engine.ok()) return 1;
  auto relation =
      data::ReadCsvFile(dir + "/dirty.csv", (*engine)->rules().data_schema_ptr());
  Session reference = (*engine)->NewTrackedSession();
  auto ref_result = reference.Run(&*relation);
  if (!ref_result.ok()) return 1;
  std::ostringstream ref_journal;
  if (!ref_result->journal.WriteCsv(ref_journal).ok()) return 1;
  if (cleaned->journal_csv != ref_journal.str()) {
    std::printf("FAIL: wire journal differs from the in-process run\n");
    return 1;
  }
  std::printf("wire journal is byte-identical to the in-process run\n");

  // 2. Stream a delta: re-insert the first two dirty rows.
  std::istringstream lines(dirty_csv);
  std::string header, row0, row1;
  std::getline(lines, header);
  std::getline(lines, row0);
  std::getline(lines, row1);
  serve::DeltaRequest delta;
  delta.session_id = cleaned->session_id;
  delta.inserts_csv = header + "\n" + row0 + "\n" + row1 + "\n";
  auto applied = client.Delta(delta);
  if (!applied.ok()) {
    std::printf("delta failed: %s\n", applied.status().ToString().c_str());
    return 1;
  }
  std::printf("wire delta: generation %u, %u tuples affected, %u fixes\n",
              applied->generation, applied->affected, applied->total_fixes);

  // 3. Hot reload: the files are unchanged, so the fingerprint must hold.
  auto report = client.Reload("hosp");
  if (!report.ok() || report->find("(unchanged)") == std::string::npos) {
    std::printf("FAIL: reload did not report an unchanged fingerprint\n");
    return 1;
  }
  std::printf("reload: %s\n", report->c_str());

  // 4. Observability: the STATS document and the shutdown summary.
  auto stats = client.Stats();
  if (!stats.ok() || stats->find("\"CLEAN\"") == std::string::npos) {
    std::printf("FAIL: stats missing request metrics\n");
    return 1;
  }
  std::printf("stats: %zu bytes of JSON\n", stats->size());

  client.Close();
  daemon.Shutdown();
  std::printf("%s", daemon.SummaryText().c_str());
  std::printf("serve_roundtrip: OK\n");
  return 0;
}
