#include "cluster/cluster_client.h"

#include <algorithm>
#include <utility>

#include "common/latency_histogram.h"
#include "common/string_util.h"

namespace uniclean {
namespace cluster {

namespace {

/// True for failures that indict the replica/connection rather than the
/// request: these are the (only) failover triggers. Transport failures from
/// serve/wire.cc carry their syscall in the message ("connect: ...",
/// "recv: ...", "send: ..."), and a vanished peer surfaces as NotFound
/// ("peer closed the connection") or Corruption ("... mid-frame") from the
/// frame layer — all distinct from the daemon's semantic kError replies,
/// which mean every replica would answer the same and must surface.
bool IsReplicaFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
      // Admission rejection that survived the per-replica retry budget:
      // this replica is overloaded, another owner may not be.
      return true;
    case StatusCode::kInternal:
      return status.message().find("connect:") != std::string::npos ||
             status.message().find("recv:") != std::string::npos ||
             status.message().find("send:") != std::string::npos;
    case StatusCode::kNotFound:
      return status.message().find("peer closed") != std::string::npos;
    case StatusCode::kCorruption:
      return status.message().find("mid-frame") != std::string::npos ||
             status.message().find("truncated") != std::string::npos;
    default:
      return false;
  }
}

int HealthRank(Health h) {
  switch (h) {
    case Health::kHealthy:
      return 0;
    case Health::kSuspect:
      return 1;
    case Health::kDown:
      return 2;
  }
  return 3;
}

}  // namespace

ClusterClient::ClusterClient(Ring ring, std::shared_ptr<Membership> membership,
                             ClusterClientOptions options)
    : ring_(std::move(ring)),
      membership_(std::move(membership)),
      options_(options) {
  if (options_.replication < 1) options_.replication = 1;
}

std::vector<std::string> ClusterClient::RouteOrder(
    const std::string& key) const {
  std::vector<std::string> owners = ring_.Owners(key, options_.replication);
  // Down replicas go last rather than being skipped: health data can be
  // stale, and when every owner looks down the request should still be
  // tried somewhere instead of failing without a connection attempt.
  std::stable_sort(owners.begin(), owners.end(),
                   [&](const std::string& a, const std::string& b) {
                     return HealthRank(membership_->health(a)) <
                            HealthRank(membership_->health(b));
                   });
  return owners;
}

Result<serve::Client*> ClusterClient::Conn(const std::string& name) {
  auto it = conns_.find(name);
  if (it != conns_.end()) return &it->second;
  UC_ASSIGN_OR_RETURN(std::string address, membership_->address(name));
  UC_ASSIGN_OR_RETURN(serve::Client client,
                      serve::Client::ConnectAddress(address));
  if (options_.io_timeout_ms > 0) {
    UC_RETURN_IF_ERROR(client.SetIoTimeoutMs(options_.io_timeout_ms));
  }
  client.set_retry_policy(options_.retry);
  if (options_.default_deadline_ms > 0) {
    client.set_default_deadline_ms(options_.default_deadline_ms);
  }
  return &conns_.emplace(name, std::move(client)).first->second;
}

void ClusterClient::DropConn(const std::string& name) {
  conns_.erase(name);
  // Sessions pinned to that connection died with it server-side; forget
  // them so a later Delta fails fast with a clear error.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.replica == name) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<serve::CleanReply> ClusterClient::Clean(
    const serve::CleanRequest& request) {
  if (request.ruleset.empty()) {
    return Status::InvalidArgument(
        "cluster clean: ruleset name is the shard key and must be non-empty");
  }
  const std::vector<std::string> route = RouteOrder(request.ruleset);
  if (route.empty()) {
    return Status::FailedPrecondition("cluster clean: the ring is empty");
  }
  Status last = Status::Unavailable("no owner reachable for ruleset '" +
                                    request.ruleset + "'");
  for (size_t i = 0; i < route.size(); ++i) {
    const std::string& name = route[i];
    if (i > 0) ++failovers_;
    Result<serve::Client*> conn = Conn(name);
    if (!conn.ok()) {
      membership_->ReportFailure(name);
      last = conn.status();
      continue;
    }
    Result<serve::CleanReply> reply = conn.value()->Clean(request);
    if (reply.ok()) {
      membership_->ReportSuccess(name);
      if (request.track) {
        // Remap the per-daemon session id into this client's space and pin
        // it to the replica (and connection) that owns it.
        const uint64_t cluster_id = next_session_++;
        sessions_[cluster_id] = {name, reply.value().session_id};
        reply.value().session_id = cluster_id;
      }
      return reply;
    }
    if (!IsReplicaFailure(reply.status())) return reply;  // semantic: surface
    membership_->ReportFailure(name);
    DropConn(name);
    last = reply.status();
  }
  return last;
}

Result<serve::DeltaReply> ClusterClient::Delta(
    const serve::DeltaRequest& request) {
  auto it = sessions_.find(request.session_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        "cluster delta: unknown session " + std::to_string(request.session_id) +
        " (never opened, closed, or lost with its pinned replica — re-CLEAN "
        "with track to open a new one)");
  }
  const std::string replica = it->second.replica;
  serve::DeltaRequest remote = request;
  remote.session_id = it->second.remote_id;
  UC_ASSIGN_OR_RETURN(serve::Client * conn, Conn(replica));
  Result<serve::DeltaReply> reply = conn->Delta(remote);
  if (!reply.ok() && IsReplicaFailure(reply.status())) {
    // The pinned replica is gone and its session with it. No cross-replica
    // retry: no other engine saw this session's CLEAN, so re-sending the
    // delta would apply edits against the wrong base state.
    membership_->ReportFailure(replica);
    DropConn(replica);
    return Status::Unavailable(
        "cluster delta: session " + std::to_string(request.session_id) +
        " was pinned to replica '" + replica +
        "', which failed mid-request (" + reply.status().ToString() +
        "); the session is gone — re-CLEAN with track");
  }
  if (reply.ok()) membership_->ReportSuccess(replica);
  return reply;
}

Status ClusterClient::CloseSession(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("cluster close: unknown session " +
                            std::to_string(session_id));
  }
  const std::string replica = it->second.replica;
  const uint64_t remote_id = it->second.remote_id;
  sessions_.erase(it);
  UC_ASSIGN_OR_RETURN(serve::Client * conn, Conn(replica));
  Status status = conn->CloseSession(remote_id);
  if (!status.ok() && IsReplicaFailure(status)) {
    // The connection (and with it the session) is already gone server-side;
    // closing a dead session is not an error worth surfacing.
    DropConn(replica);
    return Status::OK();
  }
  return status;
}

std::string ClusterClient::SessionReplica(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? std::string() : it->second.replica;
}

std::vector<std::string> ClusterClient::ConnectedReplicas() const {
  std::vector<std::string> out;
  out.reserve(conns_.size());
  for (const auto& [name, conn] : conns_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// STATS fan-out + merge
// ---------------------------------------------------------------------------

Result<std::string> StatsOpSection(const std::string& stats_json,
                                   const std::string& op) {
  const size_t requests = stats_json.find("\"requests\"");
  if (requests == std::string::npos) {
    return Status::Corruption("stats: no \"requests\" object");
  }
  const std::string needle = "\"" + op + "\": {";
  const size_t at = stats_json.find(needle, requests);
  if (at == std::string::npos) {
    return Status::NotFound("stats: no section for op " + op);
  }
  // Brace-balance from the section's opening brace; the requests object
  // holds only counters and encoded-histogram tokens, no brace-bearing
  // strings.
  size_t pos = at + needle.size() - 1;
  int depth = 0;
  for (size_t i = pos; i < stats_json.size(); ++i) {
    if (stats_json[i] == '{') ++depth;
    if (stats_json[i] == '}' && --depth == 0) {
      return stats_json.substr(pos, i - pos + 1);
    }
  }
  return Status::Corruption("stats: unbalanced braces in op section " + op);
}

Result<uint64_t> StatsOpCounter(const std::string& stats_json,
                                const std::string& op,
                                const std::string& key) {
  UC_ASSIGN_OR_RETURN(std::string section, StatsOpSection(stats_json, op));
  const std::string needle = "\"" + key + "\": ";
  const size_t at = section.find(needle);
  if (at == std::string::npos) {
    return Status::NotFound("stats: op " + op + " has no key " + key);
  }
  uint64_t v = 0;
  size_t i = at + needle.size();
  if (i >= section.size() || section[i] < '0' || section[i] > '9') {
    return Status::Corruption("stats: non-numeric value for " + op + "." + key);
  }
  for (; i < section.size() && section[i] >= '0' && section[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(section[i] - '0');
  }
  return v;
}

Result<std::string> StatsOpHist(const std::string& stats_json,
                                const std::string& op) {
  UC_ASSIGN_OR_RETURN(std::string section, StatsOpSection(stats_json, op));
  const std::string needle = "\"hist\": \"";
  const size_t at = section.find(needle);
  if (at == std::string::npos) {
    return Status::NotFound("stats: op " + op + " has no hist field");
  }
  const size_t start = at + needle.size();
  const size_t end = section.find('"', start);
  if (end == std::string::npos) {
    return Status::Corruption("stats: unterminated hist string for op " + op);
  }
  return section.substr(start, end - start);
}

Result<std::string> ClusterClient::Stats() {
  struct PerReplica {
    std::string name;
    Health health;
    std::string json;  // empty = unreachable
  };
  std::vector<PerReplica> replicas;
  int responding = 0;
  for (const ReplicaStatus& status : membership_->Snapshot()) {
    PerReplica pr;
    pr.name = status.name;
    pr.health = status.health;
    if (status.health != Health::kDown) {
      Result<serve::Client*> conn = Conn(status.name);
      if (conn.ok()) {
        Result<std::string> json = conn.value()->Stats();
        if (json.ok()) {
          pr.json = std::move(json).value();
          membership_->ReportSuccess(status.name);
          ++responding;
        } else if (IsReplicaFailure(json.status())) {
          membership_->ReportFailure(status.name);
          DropConn(status.name);
        }
      } else {
        membership_->ReportFailure(status.name);
      }
    }
    replicas.push_back(std::move(pr));
  }

  static const char* kKeys[] = {"count", "errors", "rejected", "cancelled",
                                "deadline_exceeded"};
  std::string out = "{\n";
  out += "  \"cluster\": {\"replicas\": " + std::to_string(replicas.size()) +
         ", \"responding\": " + std::to_string(responding) + "},\n";
  out += "  \"requests\": {";
  bool first_op = true;
  for (int op = static_cast<int>(serve::Op::kPing);
       op <= static_cast<int>(serve::Op::kCancel); ++op) {
    const char* op_name = serve::OpName(static_cast<serve::Op>(op));
    uint64_t sums[5] = {0, 0, 0, 0, 0};
    LatencyHistogram merged;
    for (const PerReplica& pr : replicas) {
      if (pr.json.empty()) continue;
      for (int k = 0; k < 5; ++k) {
        Result<uint64_t> v = StatsOpCounter(pr.json, op_name, kKeys[k]);
        if (v.ok()) sums[k] += v.value();
      }
      Result<std::string> hist = StatsOpHist(pr.json, op_name);
      if (hist.ok()) merged.MergeEncoded(hist.value());
    }
    if (!first_op) out += ',';
    first_op = false;
    out += "\n    \"" + std::string(op_name) + "\": {";
    for (int k = 0; k < 5; ++k) {
      out += std::string(k == 0 ? "" : ", ") + "\"" + kKeys[k] +
             "\": " + std::to_string(sums[k]);
    }
    out += ", \"latency_us\": {\"mean\": " + std::to_string(merged.mean()) +
           ", \"p50\": " + std::to_string(merged.p50()) +
           ", \"p95\": " + std::to_string(merged.p95()) +
           ", \"p99\": " + std::to_string(merged.p99()) +
           ", \"max\": " + std::to_string(merged.max()) + "}";
    out += ", \"hist\": \"" + merged.Encode() + "\"}";
  }
  out += "\n  },\n";
  out += "  \"replicas\": [";
  for (size_t i = 0; i < replicas.size(); ++i) {
    const PerReplica& pr = replicas[i];
    if (i > 0) out += ',';
    out += "\n    {\"name\": \"" + JsonEscape(pr.name) +
           "\", \"health\": \"" + HealthName(pr.health) +
           "\", \"responding\": " + (pr.json.empty() ? "false" : "true") +
           ", \"stats\": ";
    if (pr.json.empty()) {
      out += "null";
    } else {
      // The per-replica document is verbatim JSON; strip its trailing
      // newline so the embedding stays tidy.
      std::string body = pr.json;
      while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
        body.pop_back();
      }
      out += body;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace cluster
}  // namespace uniclean
