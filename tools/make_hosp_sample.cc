// make_hosp_sample: writes a tiny generated HOSP dataset to disk in the
// file formats uniclean_cli consumes — dirty.csv, master.csv, a rule
// program rules.txt, and a per-cell confidence.csv. Used by the CTest
// end-to-end smoke test and handy for quickstart experiments:
//
//   make_hosp_sample --out-dir sample --tuples 60 --master 30
//   uniclean_cli --data sample/dirty.csv --master sample/master.csv
//                --rules sample/rules.txt --confidence sample/confidence.csv

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/string_util.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << text;
  return out.good();
}

}  // namespace

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out-dir D] [--tuples N] [--master M] [--seed S]\n",
               argv0);
}

/// Strict non-negative flag value (common/string_util.h ParseNumber) of at
/// most `max`; exits 1 on anything else.
uint64_t ParseCount(const char* flag, const char* v, uint64_t max) {
  uint64_t n = 0;
  if (!ParseNumber(v, &n) || n > max) {
    std::fprintf(stderr, "%s wants a non-negative integer, got '%s'\n", flag,
                 v);
    std::exit(1);
  }
  return n;
}

int main(int argc, char** argv) {
  std::string out_dir = ".";
  gen::GeneratorConfig config;
  config.num_tuples = 60;
  config.master_size = 30;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        Usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--tuples") {
      config.num_tuples =
          static_cast<int>(ParseCount("--tuples", next(), INT_MAX));
    } else if (arg == "--master") {
      config.master_size =
          static_cast<int>(ParseCount("--master", next(), INT_MAX));
    } else if (arg == "--seed") {
      config.seed = ParseCount("--seed", next(), UINT64_MAX);
    } else {
      Usage(argv[0]);
      return 1;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  gen::Dataset ds = gen::GenerateHosp(config);

  Status s = data::WriteCsvFile(out_dir + "/dirty.csv", ds.dirty);
  if (s.ok()) s = data::WriteCsvFile(out_dir + "/master.csv", ds.master);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  // The confidence CSV mirrors the data file's shape with cells holding the
  // per-cell confidences assigned by the generator (asserted cells are 1.0).
  s = data::WriteConfidenceCsvFile(out_dir + "/confidence.csv", ds.dirty);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (!WriteTextFile(out_dir + "/rules.txt", ds.rule_text)) {
    std::fprintf(stderr, "cannot write to %s\n", out_dir.c_str());
    return 2;
  }
  std::printf("wrote HOSP sample (%d data, %d master tuples) to %s\n",
              ds.dirty.size(), ds.master.size(), out_dir.c_str());
  return 0;
}
