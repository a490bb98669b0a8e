// serve_hosp_warm: daemon users. An in-process unicleand (serve::Daemon, 4
// workers, unix socket, one ruleset per generated HOSP dataset) warm-starts
// from snapshots that carry memo contents, and 4 client threads of this
// process drive a closed loop of CLEAN requests over 16 distinct 250-tuple
// slices, 4 per dataset. Every reply's journal must be byte-identical to an
// in-process Session::Run of the same slice, computed before the daemon
// starts.

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "data/csv.h"
#include "data/string_pool.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "serve/client.h"
#include "serve/safe_csv.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "uniclean/uniclean.h"
#include "workloads.h"

namespace perfbench {

using namespace uniclean;  // NOLINT

namespace {

// kDatasets rulesets, each its own generated HOSP dataset: per-request
// cost depends on the dataset, and several per run keep the figures steady
// from seed to seed.
constexpr int kDatasets = 4;
constexpr int kTuples = 1000;  // per dataset
constexpr int kMaster = 2000;  // per dataset
constexpr int kSliceTuples = 250;
constexpr int kSlicesPerDataset = kTuples / kSliceTuples;
constexpr int kSlices = kDatasets * kSlicesPerDataset;  // 16
constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr int kMinRequests = 1000;
constexpr int kSetups = 9;
constexpr int kReplayPasses = 3;

struct ServeInputs {
  // Per dataset: the ruleset the daemon builds its engine from (file
  // paths), the ground truth, and the true matches.
  std::vector<serve::RulesetConfig> rulesets;
  std::vector<std::string> truth_csv;
  std::vector<std::vector<std::pair<data::TupleId, data::TupleId>>>
      true_matches;
  // Per slice (slice s belongs to dataset s / kSlicesPerDataset): the
  // request's CSV documents, its CLEAN frame body size and the reference
  // journal.
  std::vector<std::string> data_csv;
  std::vector<std::string> confidence_csv;
  std::vector<size_t> body_bytes;
  std::vector<std::string> journal_csv;
};

/// The first number after `key` in `text` at or after `from`; -1 if absent.
double NumberAfter(const std::string& text, const std::string& key,
                   size_t from = 0) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos) return -1.0;
  return std::atof(text.c_str() + at + key.size());
}

/// The sum of the numbers after every `key` in `text`.
double SumAfter(const std::string& text, const std::string& key) {
  double sum = 0.0;
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    sum += std::atof(text.c_str() + at + key.size());
  }
  return sum;
}

/// The slice client `client` sends as its `k`-th request: a seeded
/// shuffle per step, so the clients' k-th requests hit distinct slices.
int SliceFor(uint64_t seed, int client, uint64_t k) {
  std::mt19937_64 rng(seed * 1000003ull + k);
  int order[kSlices];
  for (int i = 0; i < kSlices; ++i) order[i] = i;
  for (int i = kSlices - 1; i > 0; --i) {
    const int j = static_cast<int>(rng() % static_cast<uint64_t>(i + 1));
    std::swap(order[i], order[j]);
  }
  return order[client];
}

/// Builds an engine the way unicleand does for this ruleset config.
Result<std::shared_ptr<CleanEngine>> BuildLikeDaemon(
    const serve::RulesetConfig& cfg) {
  UC_ASSIGN_OR_RETURN(data::SchemaPtr schema,
                      data::InferCsvSchema(cfg.schema_csv, "data"));
  return EngineBuilder()
      .WithDataSchema(schema)
      .WithMasterCsv(cfg.master_csv)
      .WithRulesFile(cfg.rules_file)
      .WithEta(cfg.eta)
      .WithDelta1(cfg.delta1)
      .WithDelta2(cfg.delta2)
      .BuildEngine();
}

/// One CLEAN as the client saw it.
struct ClientRecord {
  uint32_t tag = 0;
  int slice = 0;
  double latency_s = 0.0;
  uint32_t journal_entries = 0;
};

/// One CLEAN line of the daemon's request log.
struct LogRecord {
  uint32_t tag = 0;
  size_t bytes_in = 0;
  double bytes_out = 0.0;
  double queue_wait_s = 0.0;
  double run_s = 0.0;
};

std::vector<LogRecord> ReadRequestLog(const std::string& path) {
  std::vector<LogRecord> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"op\": \"CLEAN\"") == std::string::npos) continue;
    LogRecord r;
    r.tag = static_cast<uint32_t>(NumberAfter(line, "\"tag\": "));
    r.bytes_in = static_cast<size_t>(NumberAfter(line, "\"bytes_in\": "));
    r.bytes_out = NumberAfter(line, "\"bytes_out\": ");
    r.queue_wait_s = NumberAfter(line, "\"queue_wait_us\": ") * 1e-6;
    r.run_s = NumberAfter(line, "\"run_us\": ") * 1e-6;
    records.push_back(r);
  }
  return records;
}

/// Computes each slice's reference journal and each dataset's repair and
/// match quality with in-process engines; in the traced binary it then
/// replays every slice kReplayPasses more times on the warm engines under
/// spans. Returns false on any failure.
bool PrepareReference(ServeInputs* in, Report* report) {
  data::ScopedStringPool pool;
  std::vector<std::shared_ptr<CleanEngine>> engines;
  double repair_f1 = 0.0, match_f1 = 0.0;
  size_t true_matches = 0;
  int fixes[3] = {0, 0, 0};
  std::string all_journals;
  for (int d = 0; d < kDatasets; ++d) {
    {
      Span span("uniclean.build_engine");
      auto built = BuildLikeDaemon(in->rulesets[d]);
      if (!built.ok()) {
        report->Attempt(false, "reference build: " + built.status().ToString());
        return false;
      }
      engines.push_back(std::move(built).value());
    }
    {
      Span span("core.env_build");
      engines[d]->Warmup();
    }
    const data::SchemaPtr& schema = engines[d]->rules().data_schema_ptr();
    data::Relation inputs(schema);
    data::Relation repaired(schema);
    std::vector<std::pair<data::TupleId, data::TupleId>> matches;
    for (int j = 0; j < kSlicesPerDataset; ++j) {
      const int s = d * kSlicesPerDataset + j;
      auto relation = serve::ParseRelationCsv(in->data_csv[s], schema);
      if (!relation.ok() ||
          !serve::ApplyConfidenceCsv(in->confidence_csv[s], &*relation).ok()) {
        report->Attempt(false, "reference decode failed");
        return false;
      }
      for (const data::Tuple& t : relation->tuples()) inputs.AddTuple(t);
      Session session = engines[d]->NewSession();
      auto result = session.Run(&*relation);
      std::ostringstream csv;
      if (!result.ok() || !result->journal.WriteCsv(csv).ok()) {
        report->Attempt(false, "reference run failed");
        return false;
      }
      in->journal_csv[s] = csv.str();
      all_journals += csv.str();
      for (const data::Tuple& t : relation->tuples()) repaired.AddTuple(t);
      for (const auto& [t, m] : result->AllMatches()) {
        matches.emplace_back(t + j * kSliceTuples, m);
      }
      const std::array<int, 3> phase_fixes = PhaseFixes(result->phases);
      for (int i = 0; i < 3; ++i) fixes[i] += phase_fixes[i];
    }
    auto truth = serve::ParseRelationCsv(in->truth_csv[d], schema);
    if (!truth.ok()) {
      report->Attempt(false, "cannot decode the ground truth");
      return false;
    }
    repair_f1 += eval::RepairAccuracy(inputs, repaired, *truth).F() / kDatasets;
    match_f1 += eval::MatchAccuracy(matches, in->true_matches[d]).F() /
                kDatasets;
    true_matches += in->true_matches[d].size();
  }
  report->EndToEnd("repair_f1", repair_f1, "ratio",
                   "mean of " + std::to_string(kDatasets) + " datasets x " +
                       std::to_string(kTuples) + " tuples");
  report->EndToEnd("match_f1", match_f1, "ratio",
                   "mean of " + std::to_string(kDatasets) + " datasets, " +
                       std::to_string(true_matches) + " true matches");
  report->Fingerprint("journal_fnv1a", HexHash(all_journals));
  report->Fingerprint("fixes_c_e_h", std::to_string(fixes[0]) + "/" +
                                         std::to_string(fixes[1]) + "/" +
                                         std::to_string(fixes[2]));
  report->Layer("core.crepair_fixes", fixes[0] / double{kSlices});
  report->Layer("core.erepair_fixes", fixes[1] / double{kSlices});
  report->Layer("core.hrepair_fixes", fixes[2] / double{kSlices});
  if (!kTraced) return true;

  // The replay: what one worker does per CLEAN, single-threaded, on the
  // now-warm engines — the per-phase breakdown the daemon cannot expose,
  // and the uncontended baseline of core.concurrency_inflation.
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (int s = 0; s < kSlices; ++s) {
      const CleanEngine& engine = *engines[s / kSlicesPerDataset];
      const data::SchemaPtr& schema = engine.rules().data_schema_ptr();
      Span op("bench.replay_request",
              (uint64_t{kClients + 1} << 32) | (pass * kSlices + s + 1));
      Result<data::Relation> relation = Status::Internal("not decoded");
      {
        Span span("data.decode");
        relation = serve::ParseRelationCsv(in->data_csv[s], schema);
        if (relation.ok() &&
            !serve::ApplyConfidenceCsv(in->confidence_csv[s], &*relation)
                 .ok()) {
          relation = Status::Internal("bad confidences");
        }
      }
      if (!relation.ok()) return false;
      Session session = engine.NewSession();
      session.set_progress_callback(PhaseSpans());
      Result<CleanResult> result = Status::Internal("not run");
      {
        Span span("uniclean.run");
        result = session.Run(&*relation);
      }
      if (!result.ok()) return false;
      Span span("uniclean.journal_encode");
      std::ostringstream csv;
      if (!result->journal.WriteCsv(csv).ok()) return false;
    }
  }
  auto slice0 =
      serve::ParseRelationCsv(in->data_csv[0], engines[0]->rules().data_schema_ptr());
  if (slice0.ok()) ReportMdProbe(*engines[0], *slice0, 100, report);
  return true;
}

}  // namespace

void RunServeHospWarm(const RunOptions& options, Report* report) {
  ServeInputs in;
  in.data_csv.resize(kSlices);
  in.confidence_csv.resize(kSlices);
  in.body_bytes.resize(kSlices);
  in.journal_csv.resize(kSlices);
  const std::string snapshot_dir = options.work_dir + "/snapshots";
  bool written = ::mkdir(snapshot_dir.c_str(), 0755) == 0;
  for (int d = 0; d < kDatasets; ++d) {
    gen::GeneratorConfig config;
    config.num_tuples = kTuples;
    config.master_size = kMaster;
    config.seed = options.seed * kDatasets + static_cast<uint64_t>(d);
    gen::Dataset ds = gen::GenerateHosp(config);
    serve::RulesetConfig ruleset;
    ruleset.name = "hosp" + std::to_string(d);
    const std::string prefix = options.work_dir + "/" + ruleset.name;
    ruleset.master_csv = prefix + "_master.csv";
    ruleset.rules_file = prefix + "_rules.txt";
    ruleset.schema_csv = prefix + "_schema.csv";
    ruleset.eta = 1.0;
    const std::string dirty_csv = RelationCsv(ds.dirty);
    written = written &&
              WriteTextFile(ruleset.master_csv, RelationCsv(ds.master)) &&
              WriteTextFile(ruleset.rules_file, ds.rule_text) &&
              WriteTextFile(ruleset.schema_csv,
                            dirty_csv.substr(0, dirty_csv.find('\n') + 1));
    for (int j = 0; j < kSlicesPerDataset; ++j) {
      const int s = d * kSlicesPerDataset + j;
      data::Relation slice = Slice(ds.dirty, j * kSliceTuples, kSliceTuples);
      in.data_csv[s] = RelationCsv(slice);
      in.confidence_csv[s] = ConfidenceCsv(slice);
      std::string body;
      serve::PutU8(&body, 0);
      serve::PutLp(&body, ruleset.name);
      serve::PutLp(&body, in.data_csv[s]);
      serve::PutLp(&body, in.confidence_csv[s]);
      in.body_bytes[s] = body.size();
    }
    in.truth_csv.push_back(RelationCsv(ds.clean));
    in.true_matches.push_back(ds.true_matches);
    in.rulesets.push_back(ruleset);
  }
  if (!written) {
    report->Attempt(false, "cannot write the rendered inputs");
    return;
  }
  if (!PrepareReference(&in, report)) return;
  const auto request_for = [&in](int s) {
    serve::CleanRequest request;
    request.ruleset = in.rulesets[s / kSlicesPerDataset].name;
    request.data_csv = in.data_csv[s];
    request.confidence_csv = in.confidence_csv[s];
    return request;
  };

  serve::DaemonOptions daemon_options;
  daemon_options.listen = "unix:" + options.work_dir + "/d.sock";
  daemon_options.n_workers = kWorkers;
  daemon_options.snapshot_dir = snapshot_dir;

  // Preparation: a cold daemon serves one pass over the slices, and its
  // graceful shutdown writes the snapshots with the memo contents it earned.
  {
    data::ScopedStringPool pool;
    serve::Daemon daemon(daemon_options, in.rulesets);
    Status started = daemon.Start();
    Result<serve::Client> client =
        started.ok() ? serve::Client::ConnectAddress(daemon.address())
                     : Result<serve::Client>(started);
    if (!client.ok()) {
      report->Attempt(false, "cold daemon: " + client.status().ToString());
      return;
    }
    for (int s = 0; s < kSlices; ++s) {
      auto reply = client->Clean(request_for(s));
      if (!reply.ok() || reply->journal_csv != in.journal_csv[s]) {
        report->Attempt(false, "cold daemon reply differs from in-process");
        return;
      }
    }
    client->Close();
    daemon.Shutdown();
  }
  double snapshot_bytes = 0.0;
  for (const serve::RulesetConfig& ruleset : in.rulesets) {
    struct stat st;
    const std::string path = snapshot_dir + "/" + ruleset.name + ".ucsnap";
    if (::stat(path.c_str(), &st) == 0) snapshot_bytes += st.st_size;
  }

  // Setup, kSetups times: a fresh process-like start (fresh string pool)
  // from the snapshots until the first successful PING. The last daemon
  // stays up and serves the load.
  const std::string log_path = options.work_dir + "/requests.log";
  std::vector<double> setup_s;
  std::unique_ptr<data::ScopedStringPool> pool;
  std::unique_ptr<serve::Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon != nullptr) daemon->Shutdown();
    daemon.reset();
    pool.reset();
    pool = std::make_unique<data::ScopedStringPool>();
    serve::DaemonOptions start_options = daemon_options;
    if (kTraced && i == kSetups - 1) start_options.request_log_path = log_path;
    daemon = std::make_unique<serve::Daemon>(start_options, in.rulesets);
    const double t0 = Now();
    Status pinged = daemon->Start();
    if (pinged.ok()) {
      auto client = serve::Client::ConnectAddress(daemon->address());
      pinged = client.ok() ? client->Ping() : client.status();
    }
    const double t1 = Now();
    const bool warm =
        NumberAfter(daemon->StatsJson(), "\"snapshot_warmed_engines\": ") ==
        kDatasets;
    report->Attempt(pinged.ok() && warm,
                    "daemon start: " + pinged.ToString() +
                        (warm ? "" : " (not warm-started from the snapshots)"));
    if (!pinged.ok()) return;
    setup_s.push_back(t1 - t0);
  }

  const std::string stats0 = daemon->StatsJson();
  const size_t interned0 = data::StringPool::Global().Stats().interned;
  const AllocTally allocs0 = ProcessAllocs();

  // The closed loop: each client sends its next CLEAN only after the
  // previous reply, until the run's time is up and kMinRequests are done.
  std::vector<std::vector<ClientRecord>> records(kClients);
  std::vector<long> failed(kClients, 0);
  std::vector<std::string> first_failure(kClients);
  std::atomic<int> done{0};
  const std::string address = daemon->address();
  const double start = Now();
  const double deadline = start + options.seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = serve::Client::ConnectAddress(address);
      if (!connected.ok()) {
        ++failed[c];
        first_failure[c] = "connect: " + connected.status().ToString();
        return;
      }
      serve::Client client = std::move(connected).value();
      for (uint64_t k = 0; Now() < deadline || done.load() < kMinRequests;
           ++k) {
        const int s = SliceFor(options.seed, c, k);
        const serve::CleanRequest request = request_for(s);
        // Request id: client in the high half, sequence in the low half.
        Span op("bench.clean_request", (uint64_t(c + 1) << 32) | (k + 1));
        const double t0 = Now();
        Result<uint32_t> tag = Status::Internal("not sent");
        {
          Span span("serve.send_clean");
          tag = client.SendClean(request);
        }
        Result<serve::CleanReply> reply = Status::Internal("not sent");
        if (!tag.ok()) {
          reply = tag.status();
        } else {
          Span span("serve.await_clean");
          reply = client.AwaitClean(*tag);
        }
        const double t1 = Now();
        done.fetch_add(1);
        if (!reply.ok() || reply->journal_csv != in.journal_csv[s]) {
          if (failed[c]++ == 0) {
            first_failure[c] =
                reply.ok() ? "reply journal differs from the in-process run"
                           : "CLEAN: " + reply.status().ToString();
          }
          if (!reply.ok()) return;  // the connection may be unusable
          continue;
        }
        records[c].push_back({*tag, s, t1 - t0, reply->journal_entries});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double window = Now() - start;
  const AllocTally allocs1 = ProcessAllocs();
  const size_t interned1 = data::StringPool::Global().Stats().interned;
  const std::string stats1 = daemon->StatsJson();
  const double rejected = static_cast<double>(daemon->requests_rejected());
  daemon->Shutdown();
  daemon.reset();
  pool.reset();

  std::vector<double> latency_s;
  for (int c = 0; c < kClients; ++c) {
    for (const ClientRecord& r : records[c]) {
      report->Attempt(true);
      latency_s.push_back(r.latency_s);
    }
    for (long i = 0; i < failed[c]; ++i) report->Attempt(false, first_failure[c]);
  }
  if (latency_s.empty()) return;
  const std::string n = std::to_string(latency_s.size()) + " CLEANs";
  report->EndToEnd("setup_s", Median(setup_s), "s",
                   std::to_string(setup_s.size()) + " snapshot starts");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", "1 process");
  report->EndToEnd("tuples_per_s",
                   static_cast<double>(latency_s.size()) * kSliceTuples / window,
                   "tuples/s", n + " x " + std::to_string(kSliceTuples) +
                                   " tuples, " + std::to_string(kClients) +
                                   " closed-loop clients");
  report->EndToEnd("op_p50_ms", Median(latency_s) * 1e3, "ms", n);
  report->EndToEnd("op_p90_ms", Quantile(latency_s, 0.9) * 1e3, "ms", n);

  if (!kTraced) return;
  // Join the daemon's request log to the client records by (tag, body
  // size): a client's k-th request carries tag k+1, and the clients' k-th
  // requests go to distinct slices, so the pair names one request (equal
  // body sizes fall back to log order).
  std::map<std::pair<uint32_t, size_t>, std::vector<LogRecord>> by_key;
  for (const LogRecord& r : ReadRequestLog(log_path)) {
    by_key[{r.tag, r.bytes_in}].push_back(r);
  }
  std::vector<double> queue_s, run_s, transport_s;
  double bytes_in = 0.0, bytes_out = 0.0, entries = 0.0;
  size_t joined = 0;
  for (int c = 0; c < kClients; ++c) {
    for (const ClientRecord& r : records[c]) {
      auto it = by_key.find({r.tag, in.body_bytes[r.slice]});
      entries += r.journal_entries;
      if (it == by_key.end() || it->second.empty()) continue;
      const LogRecord log = it->second.front();
      it->second.erase(it->second.begin());
      ++joined;
      queue_s.push_back(log.queue_wait_s);
      run_s.push_back(log.run_s);
      transport_s.push_back(r.latency_s - log.queue_wait_s - log.run_s);
      bytes_in += static_cast<double>(log.bytes_in);
      bytes_out += log.bytes_out;
    }
  }
  std::printf("  request log: %zu of %zu CLEANs joined\n", joined,
              latency_s.size());
  const double requests = static_cast<double>(latency_s.size());
  report->Layer("serve.queue_wait_ms", Median(queue_s) * 1e3);
  report->Layer("serve.run_ms", Median(run_s) * 1e3);
  report->Layer("serve.transport_ms", Median(transport_s) * 1e3);
  report->Layer("serve.bytes_in_per_req",
                joined > 0 ? bytes_in / static_cast<double>(joined) : 0.0);
  report->Layer("serve.bytes_out_per_req",
                joined > 0 ? bytes_out / static_cast<double>(joined) : 0.0);
  report->Layer("serve.rejected", rejected);
  report->Layer("uniclean.journal_entries", entries / requests);

  // Daemon-side memo traffic during the load, from its STATS document (one
  // memo object per ruleset).
  const double hits =
      SumAfter(stats1, "\"hits\": ") - SumAfter(stats0, "\"hits\": ");
  const double misses =
      SumAfter(stats1, "\"misses\": ") - SumAfter(stats0, "\"misses\": ");
  report->Layer("core.memo_hits", hits / requests);
  report->Layer("core.memo_misses", misses / requests);
  report->Layer("core.memo_hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Layer("core.memo_bytes",
                NumberAfter(stats1, "\"bytes\": ",
                            stats1.find("\"memo\"",
                                        stats1.find("\"engine_memory\""))));
  report->Layer("snapshot.load_s", SumAfter(stats1, "\"load_s\": "));
  report->Layer("snapshot.bytes", snapshot_bytes);
  report->Layer("data.pool_interned", static_cast<double>(interned1 - interned0));
  report->Layer("alloc.count_per_op",
                static_cast<double>(allocs1.count - allocs0.count) / requests);
  report->Layer("alloc.bytes_per_op",
                static_cast<double>(allocs1.bytes - allocs0.bytes) / requests);

  const std::vector<SpanRecord> spans = CollectSpans();
  const TraceSummary replay = Summarize(spans, "bench.replay_request");
  const TraceSummary clean = Summarize(spans, "bench.clean_request");
  ReportTraceSummary(replay, "uniclean.run", report);
  auto self = clean.self_seconds_per_op.find("serve");
  report->Layer("serve.self_s",
                self == clean.self_seconds_per_op.end() ? 0.0 : self->second);
  auto self_allocs = clean.self_allocs_per_op.find("serve");
  report->Layer("serve.self_allocs", self_allocs == clean.self_allocs_per_op.end()
                                         ? 0.0
                                         : self_allocs->second);
  report->Layer("trace.child_coverage",
                std::min(replay.child_coverage, clean.child_coverage));
  std::vector<double> replay_s;
  for (const SpanRecord& s : spans) {
    if (s.name == "bench.replay_request") replay_s.push_back(s.end - s.start);
  }
  const double replay_p50 = Median(replay_s);
  report->Layer("core.concurrency_inflation",
                replay_p50 > 0 ? Median(run_s) / replay_p50 : 0.0);
}

}  // namespace perfbench
