// Cluster membership: per-replica health state driven off the PING opcode.
//
// A Membership holds one entry per replica (name + connectable address) and
// classifies each as healthy / suspect / down with hysteresis: a replica
// leaves `healthy` after `suspect_after` consecutive probe failures, hits
// `down` after `down_after`, and returns to `healthy` only after
// `healthy_after` consecutive successes — so one dropped probe cannot flap
// the routing table, and one lucky pong cannot resurrect a flapping
// replica.
//
// Probes are serve::Client::PingEx round trips under an IO timeout: a
// single cheap opcode yields liveness, instantaneous load (in-flight +
// queued) and per-ruleset engine fingerprints (the rolling-reload
// verification signal). A pong whose trailer does not decode fails
// PingEx with Corruption and counts as a failed probe. Two probe styles
// share the same state machine:
//
//  * Start()/Stop() run a background prober thread at `probe_interval_ms`
//    (what unicleanctl status and long-lived routers use);
//
//  * ProbeAll()/ProbeOne() probe synchronously on the caller's thread
//    (what the tests and one-shot tools use);
//
// and the routing client feeds request outcomes in through
// ReportSuccess/ReportFailure, so a replica that dies between probes is
// marked without waiting for the prober to notice.
//
// Thread-safe: all state is behind one mutex; probes themselves run
// unlocked (a slow replica must not block health reads).

#ifndef UNICLEAN_CLUSTER_MEMBERSHIP_H_
#define UNICLEAN_CLUSTER_MEMBERSHIP_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"

namespace uniclean {
namespace cluster {

enum class Health { kHealthy, kSuspect, kDown };

/// "healthy" / "suspect" / "down".
const char* HealthName(Health h);

struct MembershipOptions {
  /// Background prober cadence (Start()); also the retry cadence for down
  /// replicas, so recovery is noticed within one interval.
  int probe_interval_ms = 200;
  /// Per-probe socket budget (connect + ping round trip).
  int probe_timeout_ms = 1000;
  /// Consecutive failures before healthy -> suspect.
  int suspect_after = 1;
  /// Consecutive failures before -> down.
  int down_after = 3;
  /// Consecutive successes before suspect/down -> healthy.
  int healthy_after = 1;
};

/// One replica's view, as of the last probe / report.
struct ReplicaStatus {
  std::string name;
  std::string address;  // "unix:PATH" or "host:port"
  Health health = Health::kHealthy;
  /// From the last successful probe's pong trailer.
  uint32_t inflight = 0;
  uint32_t queued = 0;
  std::vector<std::pair<std::string, uint64_t>> rulesets;
  uint64_t probes = 0;
  uint64_t failures = 0;
  int consecutive_failures = 0;
  int consecutive_successes = 0;
};

class Membership {
 public:
  explicit Membership(MembershipOptions options = {});
  /// Stops the prober thread if running.
  ~Membership();

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Registers a replica (initially healthy — optimistic, so a fresh router
  /// routes immediately and demotes on evidence). InvalidArgument on
  /// duplicate/empty name.
  Status AddReplica(const std::string& name, const std::string& address);

  Health health(const std::string& name) const;
  /// NotFound for unknown names.
  Result<ReplicaStatus> status(const std::string& name) const;
  /// Every replica's status, sorted by name.
  std::vector<ReplicaStatus> Snapshot() const;
  Result<std::string> address(const std::string& name) const;

  /// One synchronous probe of every replica (callers' thread; no prober
  /// needed). Returns the number of replicas that answered.
  int ProbeAll();
  /// One synchronous probe of one replica; true = it answered.
  bool ProbeOne(const std::string& name);

  /// Request-outcome feedback from the routing client: a transport failure
  /// counts like a failed probe, a served request like a successful one
  /// (without load/fingerprint data).
  void ReportFailure(const std::string& name);
  void ReportSuccess(const std::string& name);

  /// Spawns the background prober. Idempotent.
  void Start();
  /// Stops and joins the prober. Idempotent; also run by the destructor.
  void Stop();

  const MembershipOptions& options() const { return options_; }

 private:
  struct Entry;

  /// Applies one probe/report outcome to the hysteresis state machine.
  void Apply(Entry& entry, bool ok);
  void ProberLoop();

  struct Entry {
    ReplicaStatus status;
  };

  MembershipOptions options_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // sorted by name

  std::thread prober_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace cluster
}  // namespace uniclean

#endif  // UNICLEAN_CLUSTER_MEMBERSHIP_H_
