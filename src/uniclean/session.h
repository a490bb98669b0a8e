// Session: the cheap, per-run handle of the engine/session split. A
// CleanEngine (engine.h) owns everything immutable and expensive — rules,
// master data, the warm core::MatchEnvironment and its memos, and the
// selected phases — while a Session carries only the per-run mutable state:
// the progress callback, the cancel token, and (per Run call) the data
// relation being cleaned and the journal being written. Sessions are
// move-only, cost one shared_ptr copy to create, and hold their engine alive
// through it, so the serving loop is:
//
//   uniclean::Session session = engine->NewSession();
//   auto result = session.Run(&batch);   // warm indexes, shared memos
//
// Any number of sessions may Run() concurrently over *independent* data
// relations; results are byte-identical to running the same relations
// serially (the engine's shared memos cache pure functions of the static
// master data). One Session must not be used from two threads at once, and
// two concurrent Runs must not clean the same relation.
//
// Incremental cleaning: a *tracked* session (CleanEngine::NewTrackedSession)
// additionally keeps its relation's pristine (pre-cleaning) state and the
// latest run's journal. ApplyDelta(Delta) then folds a batch of
// inserts/updates/deletes in: it stages the edits on a copy of the pristine
// relation and re-runs the whole phase pipeline over it against the engine's
// warm match environment and unchanged master — by construction the batch
// run over the edited relation — and commits the result only if that run
// succeeds. The fixes of the tuples the delta touched are journaled under a
// fresh generation:
//
//   uniclean::Session session = engine->NewTrackedSession();
//   auto initial = session.Run(&d);              // generation 0
//   uniclean::Delta delta;
//   delta.inserts.push_back(std::move(row));
//   auto dr = session.ApplyDelta(delta);         // generation 1
//   session.CanonicalJournal();                  // == batch run over final d

#ifndef UNICLEAN_UNICLEAN_SESSION_H_
#define UNICLEAN_UNICLEAN_SESSION_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "data/relation.h"
#include "uniclean/fix_journal.h"
#include "uniclean/phase.h"

namespace uniclean {

class CleanEngine;

/// The outcome of one Session::Run(): per-phase statistics plus the full
/// fix provenance journal.
struct CleanResult {
  FixJournal journal;
  /// One entry per executed phase, in pipeline order.
  std::vector<PhaseStats> phases;

  /// Sum of all phases' fix counts.
  int total_fixes() const;

  /// Stats of the named phase, or null if it did not run.
  const PhaseStats* phase(std::string_view name) const;

  /// All record matches identified across the phases, deduplicated and
  /// sorted — the paper's "matches found by Uni" (Exp-2).
  std::vector<std::pair<data::TupleId, data::TupleId>> AllMatches() const;
};

/// One batch of edits to a tracked relation, applied by
/// Session::ApplyDelta in the order updates, deletes, inserts. Tuple
/// content (values + confidences) is taken as the new *pristine* state: the
/// re-run starts the edited tuples from these values, exactly as a batch run
/// over the edited relation would.
struct Delta {
  /// New tuples, appended with fresh ids (reported in
  /// DeltaResult::inserted_ids). Arity must match the data schema.
  std::vector<data::Tuple> inserts;
  /// (existing tuple id, replacement content) pairs. The id must be live.
  std::vector<std::pair<data::TupleId, data::Tuple>> updates;
  /// Tuple ids to tombstone (data::Relation::EraseTuple — ids never shift).
  std::vector<data::TupleId> deletes;

  bool empty() const {
    return inserts.empty() && updates.empty() && deletes.empty();
  }
};

/// The outcome of one Session::ApplyDelta.
struct DeltaResult {
  /// Generation this delta was journaled under (1 for the first delta after
  /// Run, then monotonically increasing; unchanged by a no-op delta).
  int generation = 0;
  /// Ids minted for Delta::inserts, index-matched to the input.
  std::vector<data::TupleId> inserted_ids;
  /// Tuples the delta edited or whose canonical fix rows changed — the
  /// reach of the edit's effect, not its cost (every delta re-runs the
  /// whole relation).
  int affected = 0;
  /// Pipeline runs: 1, or 0 for a no-op delta.
  int refinement_rounds = 0;
  /// This generation's entries: the fresh fixes of every `affected` tuple,
  /// with tuple ids of the tracked relation.
  FixJournal delta_journal;
  /// Per-phase statistics of the re-run.
  std::vector<PhaseStats> phases;

  /// Sum of the re-run's phase fix counts.
  int total_fixes() const;
};

/// A per-run cleaning handle obtained from CleanEngine::NewSession() or
/// CleanEngine::NewTrackedSession(). Move-only. Holds its engine alive and
/// runs the engine's selected phases.
class Session {
 public:
  /// An empty session; Run() fails with FailedPrecondition until a real
  /// session is move-assigned in. Exists so sessions can be class members.
  Session() = default;

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Cleans `data` in place against the engine's master, rules and warm
  /// match environment. The relation's schema must match the rule set's
  /// data schema; its cell values must be interned in the same StringPool
  /// as the engine's master (always true outside ScopedStringPool test
  /// scopes), or the shared memos would confuse ids across pools. May be
  /// called repeatedly, over the same or different relations; every call
  /// reuses the engine's warm indexes and memos.
  ///
  /// On a tracked session (CleanEngine::NewTrackedSession) a Run
  /// additionally snapshots the relation's pristine state and keeps the
  /// journal for ApplyDelta; the relation must then outlive the session's
  /// delta use, and a repeated Run restarts tracking from scratch
  /// (generation 0) on its relation.
  Result<CleanResult> Run(data::Relation* data);

  /// Folds `delta` into the tracked relation: stages the edits on a copy of
  /// the pristine relation, re-runs the phase pipeline over all of it against
  /// the engine's warm match environment, and on success commits the
  /// repaired relation, the new pristine state and the journal.
  /// The result is the batch run over the edited relation, so
  /// CanonicalJournal() then equals a batch run's, provenance included.
  /// Fails with FailedPrecondition before a tracked Run() and with
  /// InvalidArgument on bad edits (unknown or dead tuple ids, arity
  /// mismatches); on any failure, cancellation included, nothing is applied
  /// and generation() does not change. An empty delta is a no-op: it
  /// returns the current generation without running anything.
  Result<DeltaResult> ApplyDelta(const Delta& delta);

  /// The canonical journal of the latest Run or ApplyDelta (see
  /// FixJournal::Canonicalized): byte-identical to a batch run's over the
  /// current relation. Empty before a tracked Run().
  const FixJournal& CanonicalJournal() const { return canonical_; }

  /// Full accumulated journal of a tracked session: the initial Run's
  /// generation-0 entries plus every delta generation's (the fresh entries
  /// of the tuples it touched), in append order.
  const FixJournal& journal() const { return journal_; }

  /// Delta generations applied since the tracked Run() (0 right after it).
  int generation() const { return generation_; }

  /// Observer invoked before and after every phase of Run() and
  /// ApplyDelta. An ApplyDelta event's data pointer is the staged copy the
  /// re-run cleans, not the tracked relation.
  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Arms cooperative cancellation for subsequent Run/ApplyDelta calls
  /// (null disarms). The token is polled at phase boundaries and, inside
  /// the phases, between committed fixes; a trip inside a phase prefixes
  /// the status with that phase's name ("phase 'cRepair': ..."). Semantics
  /// when it trips:
  ///
  ///  * Run() becomes all-or-nothing: the pipeline executes over a scratch
  ///    copy that is swapped into the caller's relation only on success, so
  ///    a cancelled/expired run returns kCancelled/kDeadlineExceeded with
  ///    ZERO fixes applied and no journal — never a partially repaired
  ///    relation. (Without a token the historical clean-in-place path is
  ///    unchanged and costs no copy.) A tracked session whose Run was
  ///    cancelled resets to the not-yet-run state and stays usable for a
  ///    fresh Run().
  ///  * ApplyDelta is all-or-nothing too: it always cleans a staged copy, so
  ///    a cancelled delta leaves the relation, generation() and both
  ///    journals at their pre-delta state, and the session remains usable.
  void set_cancel_token(std::shared_ptr<const common::CancelToken> token) {
    cancel_ = std::move(token);
  }

  /// Phase names in pipeline order.
  std::vector<std::string> PhaseNames() const;

  /// The engine this session runs against; null for an empty session.
  const CleanEngine* engine() const { return engine_.get(); }

 private:
  friend class CleanEngine;

  explicit Session(std::shared_ptr<const CleanEngine> engine)
      : engine_(std::move(engine)) {}

  /// Arms delta tracking for the next Run (see ApplyDelta); called by
  /// CleanEngine::NewTrackedSession only. Tracking costs one pristine clone
  /// of the relation plus the journal.
  void EnableDeltaTracking() { track_deltas_ = true; }

  /// The shared pipeline executor behind Run and ApplyDelta: the engine's
  /// selected phases, in paper order.
  Result<std::vector<PhaseStats>> ExecutePipeline(data::Relation* data,
                                                  FixJournal* journal);

  std::shared_ptr<const CleanEngine> engine_;
  ProgressCallback progress_;
  std::shared_ptr<const common::CancelToken> cancel_;

  // --- delta-tracking state (unused unless track_deltas_) ------------------
  bool track_deltas_ = false;
  data::Relation* tracked_ = nullptr;         // borrowed; bound by Run
  std::unique_ptr<data::Relation> pristine_;  // pre-cleaning snapshot
  FixJournal journal_;                        // all generations, append order
  FixJournal canonical_;                      // the latest run's, canonical
  int generation_ = 0;
};

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_SESSION_H_
