// uniclean_client: command-line companion of unicleand (serve/client.h).
//
//   uniclean_client --port N [--host 127.0.0.1 | --port-file P |
//                             --address unix:PATH|HOST:PORT]
//     --ping                         liveness probe
//     --stats                        print the daemon's STATS JSON
//     --reload [NAME]                hot-reload a ruleset ("" = all)
//     --clean D.csv                  batch-clean D.csv over the wire
//       [--confidence C.csv]         per-cell confidences
//       [--ruleset NAME]             ruleset to clean against
//       [--journal J.csv]            write the fix journal CSV here
//       [--out R.csv]                write the repaired relation here
//       [--track]                    keep the session for --delta
//       [--delta E.csv]              insert E.csv's rows incrementally
//                                    (implies --track)
//       [--delta-journal J2.csv]     canonical journal after the delta
//     --deadline-ms N                per-request deadline (server-enforced;
//                                    0 = the daemon's default)
//     --max-retries N                retry kUnavailable rejections up to N
//                                    times with capped exponential backoff,
//                                    honouring the daemon's retry-after hint
//     --retry-seed N                 jitter seed for the retry backoff
//                                    (default: pid), so tests replay
//                                    byte-identical schedules
//
// Tracked sessions live exactly as long as their connection, so --clean
// --track --delta runs both requests over one connection in one
// invocation — the same contract uniclean_cli's --delta flag has
// in-process. The journal written by --journal (and --delta-journal) is
// byte-identical to the in-process run's.
//
// Exit codes: 0 success, 1 usage error, 2 connection error, 3 request
// failed (the daemon's error message is printed to stderr).

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "serve/client.h"

using namespace uniclean;  // NOLINT

namespace {

struct ClientCli {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
  std::string address;  // "unix:PATH" or "host:port"; overrides host/port
  bool ping = false;
  bool stats = false;
  bool reload = false;
  std::string reload_name;
  std::string clean_path;
  std::string confidence_path;
  std::string ruleset;
  std::string journal_path;
  std::string out_path;
  bool track = false;
  std::string delta_path;
  std::string delta_journal_path;
  int deadline_ms = 0;
  int max_retries = 0;
  bool have_retry_seed = false;
  uint64_t retry_seed = 0;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port N [--host H | --port-file P | --address A] COMMAND\n"
      "  --address A               unix:PATH or HOST:PORT\n"
      "  --ping | --stats | --reload [NAME]\n"
      "  --clean D.csv [--confidence C.csv] [--ruleset NAME]\n"
      "          [--journal J.csv] [--out R.csv] [--track]\n"
      "          [--delta E.csv] [--delta-journal J2.csv]\n"
      "  [--deadline-ms N] [--max-retries N] [--retry-seed N]\n",
      argv0);
}

/// Strict numeric flag value (common/string_util.h ParseNumber): the whole
/// value must be one in-range number.
template <typename T>
bool ParseFlag(const char* flag, const char* v, T* out) {
  if (ParseNumber(v, out)) return true;
  std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, v);
  return false;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

bool ParseArgs(int argc, char** argv, ClientCli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto peek = [&]() -> const char* {
      return i + 1 < argc ? argv[i + 1] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host") {
      if ((v = next()) == nullptr) return false;
      cli->host = v;
    } else if (arg == "--port") {
      if ((v = next()) == nullptr) return false;
      if (!ParseFlag("--port", v, &cli->port)) return false;
    } else if (arg == "--port-file") {
      if ((v = next()) == nullptr) return false;
      cli->port_file = v;
    } else if (arg == "--address") {
      if ((v = next()) == nullptr) return false;
      cli->address = v;
    } else if (arg == "--ping") {
      cli->ping = true;
    } else if (arg == "--stats") {
      cli->stats = true;
    } else if (arg == "--reload") {
      cli->reload = true;
      // Optional operand: a NAME not starting with "--".
      if (peek() != nullptr && std::string(peek()).rfind("--", 0) != 0) {
        cli->reload_name = next();
      }
    } else if (arg == "--clean") {
      if ((v = next()) == nullptr) return false;
      cli->clean_path = v;
    } else if (arg == "--confidence") {
      if ((v = next()) == nullptr) return false;
      cli->confidence_path = v;
    } else if (arg == "--ruleset") {
      if ((v = next()) == nullptr) return false;
      cli->ruleset = v;
    } else if (arg == "--journal") {
      if ((v = next()) == nullptr) return false;
      cli->journal_path = v;
    } else if (arg == "--out") {
      if ((v = next()) == nullptr) return false;
      cli->out_path = v;
    } else if (arg == "--track") {
      cli->track = true;
    } else if (arg == "--delta") {
      if ((v = next()) == nullptr) return false;
      cli->delta_path = v;
      cli->track = true;
    } else if (arg == "--delta-journal") {
      if ((v = next()) == nullptr) return false;
      cli->delta_journal_path = v;
    } else if (arg == "--deadline-ms") {
      if ((v = next()) == nullptr) return false;
      if (!ParseFlag("--deadline-ms", v, &cli->deadline_ms)) return false;
    } else if (arg == "--max-retries") {
      if ((v = next()) == nullptr) return false;
      if (!ParseFlag("--max-retries", v, &cli->max_retries)) return false;
    } else if (arg == "--retry-seed") {
      if ((v = next()) == nullptr) return false;
      if (!ParseFlag("--retry-seed", v, &cli->retry_seed)) return false;
      cli->have_retry_seed = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ClientCli cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 1;
  }
  if (!cli.port_file.empty()) {
    std::string text;
    if (!ReadFile(cli.port_file, &text)) return 1;
    const std::string line = text.substr(0, text.find('\n'));
    // A unix-mode daemon writes its "unix:PATH" address to the port file.
    if (line.rfind("unix:", 0) == 0) {
      cli.address = line;
    } else if (!ParseFlag("--port-file", line.c_str(), &cli.port)) {
      return 1;
    }
  }
  if (cli.address.empty() && cli.port <= 0) {
    std::fprintf(stderr, "--port (or --port-file / --address) is required\n");
    Usage(argv[0]);
    return 1;
  }
  if (!cli.ping && !cli.stats && !cli.reload && cli.clean_path.empty()) {
    std::fprintf(stderr, "no command given\n");
    Usage(argv[0]);
    return 1;
  }

  Result<serve::Client> connected =
      cli.address.empty()
          ? serve::Client::Connect(cli.host, cli.port)
          : serve::Client::ConnectAddress(cli.address);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    return 2;
  }
  serve::Client client = std::move(connected).value();
  if (cli.deadline_ms > 0) {
    client.set_default_deadline_ms(static_cast<uint32_t>(cli.deadline_ms));
  }
  if (cli.max_retries > 0) {
    serve::RetryPolicy policy;
    policy.max_retries = cli.max_retries;
    // Default seed is the pid so concurrent invocations spread their
    // retries; --retry-seed pins it so tests replay identical schedules.
    policy.jitter_seed = cli.have_retry_seed
                             ? cli.retry_seed
                             : static_cast<uint64_t>(::getpid());
    client.set_retry_policy(policy);
  }

  if (cli.ping) {
    Status status = client.Ping();
    if (!status.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", status.ToString().c_str());
      return 3;
    }
    std::printf("pong\n");
  }

  if (cli.reload) {
    Result<std::string> report = client.Reload(cli.reload_name);
    if (!report.ok()) {
      std::fprintf(stderr, "reload failed: %s\n",
                   report.status().ToString().c_str());
      return 3;
    }
    std::printf("%s\n", report->c_str());
  }

  if (!cli.clean_path.empty()) {
    serve::CleanRequest request;
    request.ruleset = cli.ruleset;
    request.track = cli.track;
    request.want_data = !cli.out_path.empty();
    if (!ReadFile(cli.clean_path, &request.data_csv)) return 1;
    if (!cli.confidence_path.empty() &&
        !ReadFile(cli.confidence_path, &request.confidence_csv)) {
      return 1;
    }
    Result<serve::CleanReply> reply = client.Clean(request);
    if (!reply.ok()) {
      std::fprintf(stderr, "clean failed: %s\n",
                   reply.status().ToString().c_str());
      return 3;
    }
    std::printf("cleaned: %u fixes (%s), %u journal entries\n",
                reply->total_fixes, reply->phase_summary.c_str(),
                reply->journal_entries);
    if (!cli.journal_path.empty() &&
        !WriteFile(cli.journal_path, reply->journal_csv)) {
      return 1;
    }
    if (!cli.out_path.empty() && !WriteFile(cli.out_path, reply->data_csv)) {
      return 1;
    }

    if (!cli.delta_path.empty()) {
      serve::DeltaRequest delta;
      delta.session_id = reply->session_id;
      if (!ReadFile(cli.delta_path, &delta.inserts_csv)) return 1;
      Result<serve::DeltaReply> dr = client.Delta(delta);
      if (!dr.ok()) {
        std::fprintf(stderr, "delta failed: %s\n",
                     dr.status().ToString().c_str());
        return 3;
      }
      std::printf(
          "delta: generation %u, %u tuples affected, %u fixes, %zu "
          "inserted\n",
          dr->generation, dr->affected, dr->total_fixes,
          dr->inserted_ids.size());
      if (!cli.delta_journal_path.empty() &&
          !WriteFile(cli.delta_journal_path, dr->journal_csv)) {
        return 1;
      }
    }
  }

  if (cli.stats) {
    Result<std::string> json = client.Stats();
    if (!json.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   json.status().ToString().c_str());
      return 3;
    }
    std::puts(json->c_str());
  }
  return 0;
}
