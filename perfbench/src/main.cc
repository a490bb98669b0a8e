// perfbench: runs one workload of the repository's benchmark and prints its
// metrics. The last line of standard output is one JSON object with the
// run's attempted/failed operation counts, end-to-end metrics, per-layer
// metrics (traced binary only) and behaviour fingerprint; perfbench/run.py
// turns it into the benchmark's result line.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S]
//   NAME: batch_dblp_cold | serve_hosp_warm | delta_hosp_stream
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Report;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void PrintReport(const Report& report) {
  for (const Report::Metric& m : report.end_to_end()) {
    std::printf("%-16s %14.4f %-9s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  for (const auto& [key, value] : report.fingerprint()) {
    std::printf("fingerprint %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED CHECK: %s\n", failure.c_str());
  }
  std::string json = "{\"attempted\": " + std::to_string(report.attempted()) +
                     ", \"failed\": " + std::to_string(report.failed()) +
                     ", \"end_to_end\": {";
  bool first = true;
  for (const Report::Metric& m : report.end_to_end()) {
    json += std::string(first ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + JsonString(m.samples) + "}";
    first = false;
  }
  json += "}, \"per_layer\": {";
  if (perfbench::kTraced) {
    first = true;
    for (const auto& [name, unit] : perfbench::LayerMetricUnits()) {
      auto it = report.layer().find(name);
      const double value = it == report.layer().end() ? 0.0 : it->second;
      std::printf("%-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
      json += std::string(first ? "" : ", ") + JsonString(name) +
              ": {\"value\": " + JsonNumber(value) +
              ", \"unit\": " + JsonString(unit) + "}";
      first = false;
    }
  }
  if (perfbench::kTraced) {
    // Figures of layers no listed workload exercises (the delta workload's
    // incremental metrics) are printed but left out of the result.
    for (const auto& [name, value] : report.layer()) {
      bool listed = false;
      for (const auto& entry : perfbench::LayerMetricUnits()) {
        listed = listed || entry.first == name;
      }
      if (!listed) std::printf("%-32s %16.6f (unlisted)\n", name.c_str(), value);
    }
  }
  json += "}, \"fingerprint\": {";
  first = true;
  for (const auto& [key, value] : report.fingerprint()) {
    json += std::string(first ? "" : ", ") + JsonString(key) + ": " +
            JsonString(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  void (*run)(const perfbench::RunOptions&, Report*) = nullptr;
  if (options.workload == "batch_dblp_cold") {
    run = perfbench::RunBatchDblpCold;
  } else if (options.workload == "serve_hosp_warm") {
    run = perfbench::RunServeHospWarm;
  } else if (options.workload == "delta_hosp_stream") {
    run = perfbench::RunDeltaHospStream;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  // Relative on purpose: the serve workload's unix socket lives here, and
  // socket paths are limited to ~100 bytes.
  options.work_dir = ".bench_build/work/" + options.workload + "-" +
                     std::to_string(options.seed) + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g traced=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              perfbench::kTraced ? 1 : 0);
  std::fflush(stdout);
  Report report;
  run(options, &report);
  std::filesystem::remove_all(options.work_dir, ec);
  if (perfbench::kTraced) {
    // The raw spans, kept for analysis beyond the summarized metrics.
    const std::string traces = ".bench_build/traces";
    const std::string path = traces + "/" + options.workload + "-" +
                             std::to_string(options.seed) + "-" +
                             std::to_string(::getpid()) + ".jsonl";
    std::filesystem::create_directories(traces, ec);
    if (!ec && perfbench::WriteSpans(path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  if (report.attempted() == 0) report.Attempt(false, "no operation completed");
  PrintReport(report);
  return report.failed() == 0 ? 0 : 1;
}
