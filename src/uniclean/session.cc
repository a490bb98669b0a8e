#include "uniclean/session.h"

#include <algorithm>

#include "uniclean/detail.h"
#include "uniclean/engine.h"

namespace uniclean {

// ---------------------------------------------------------------------------
// CleanResult
// ---------------------------------------------------------------------------

int CleanResult::total_fixes() const {
  int total = 0;
  for (const PhaseStats& stats : phases) total += stats.fixes;
  return total;
}

const PhaseStats* CleanResult::phase(std::string_view name) const {
  for (const PhaseStats& stats : phases) {
    if (stats.phase == name) return &stats;
  }
  return nullptr;
}

std::vector<std::pair<data::TupleId, data::TupleId>> CleanResult::AllMatches()
    const {
  std::vector<std::pair<data::TupleId, data::TupleId>> all;
  for (const PhaseStats& stats : phases) {
    all.insert(all.end(), stats.matches.begin(), stats.matches.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// ---------------------------------------------------------------------------
// DeltaResult
// ---------------------------------------------------------------------------

int DeltaResult::total_fixes() const {
  int total = 0;
  for (const PhaseStats& stats : phases) total += stats.fixes;
  return total;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Result<std::vector<PhaseStats>> Session::ExecutePipeline(data::Relation* data,
                                                         FixJournal* journal) {
  std::vector<PhaseStats> executed;
  PipelineContext ctx;
  ctx.data = data;
  ctx.master = &engine_->master();
  ctx.rules = &engine_->rules();
  ctx.config = engine_->config();
  ctx.journal = journal;
  ctx.match_env = &engine_->environment();
  ctx.cancel = cancel_.get();

  const int total = static_cast<int>(phases_.size());
  executed.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    UC_RETURN_IF_ERROR(common::PollCancel(ctx.cancel));
    Phase& phase = *phases_[static_cast<size_t>(i)];
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseStarted;
      event.index = i;
      event.total = total;
      event.phase = phase.name();
      event.data = data;
      progress_(event);
    }
    Result<PhaseStats> stats = phase.Run(&ctx);
    if (!stats.ok()) {
      return internal::Annotate(stats.status(),
                                "phase '" + std::string(phase.name()) + "': ");
    }
    PhaseStats phase_stats = std::move(stats).value();
    phase_stats.phase = std::string(phase.name());
    executed.push_back(std::move(phase_stats));
    if (progress_) {
      PhaseEvent event;
      event.kind = PhaseEvent::Kind::kPhaseFinished;
      event.index = i;
      event.total = total;
      event.phase = phase.name();
      event.stats = &executed.back();
      event.data = data;
      progress_(event);
    }
  }
  return executed;
}

Result<CleanResult> Session::Run(data::Relation* data) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Run: empty session (obtain one from "
        "CleanEngine::NewSession)");
  }
  if (data == nullptr) {
    return Status::InvalidArgument("Run(data): relation must not be null");
  }
  if (!internal::SchemaMatches(engine_->rules().data_schema(),
                               data->schema())) {
    return Status::InvalidArgument(
        "Run(data): relation schema " +
        internal::DescribeSchema(data->schema()) +
        " does not match the rule set's data schema " +
        internal::DescribeSchema(engine_->rules().data_schema()));
  }

  if (track_deltas_) {
    // Snapshot the pre-cleaning state first: ApplyDelta re-runs the
    // pipeline from these values, exactly as a batch run over the edited
    // relation would. A repeated Run restarts tracking from scratch.
    tracked_ = data;
    pristine_ = std::make_unique<data::Relation>(data->Clone());
    journal_ = FixJournal();
    canonical_ = FixJournal();
    generation_ = 0;
  }

  CleanResult result;
  if (cancel_ != nullptr) {
    // All-or-nothing under cancellation: clean a scratch copy and swap it
    // into the caller's relation only on success, so a cancelled or expired
    // run applies ZERO fixes — never a partially repaired relation. The
    // tokenless path below stays the historical clean-in-place one (no copy).
    data::Relation scratch = data->Clone();
    Result<std::vector<PhaseStats>> executed =
        ExecutePipeline(&scratch, &result.journal);
    if (!executed.ok()) {
      if (track_deltas_) {
        // Reset to the not-yet-run state so the session stays usable for a
        // fresh tracked Run().
        tracked_ = nullptr;
        pristine_.reset();
        journal_ = FixJournal();
        canonical_ = FixJournal();
        generation_ = 0;
      }
      return executed.status();
    }
    *data = std::move(scratch);
    result.phases = std::move(executed).value();
  } else {
    Result<std::vector<PhaseStats>> executed =
        ExecutePipeline(data, &result.journal);
    if (!executed.ok()) return executed.status();
    result.phases = std::move(executed).value();
  }

  if (track_deltas_) {
    journal_ = result.journal;
    canonical_ = result.journal.Canonicalized();
    known_master_size_ = engine_->environment().indexed_master_size();
  }
  return result;
}

Result<DeltaResult> Session::ApplyDelta(const Delta& delta) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::ApplyDelta: empty session (obtain one from "
        "CleanEngine::NewTrackedSession)");
  }
  if (!track_deltas_ || tracked_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::ApplyDelta requires a delta-tracking session with a "
        "completed Run (CleanEngine::NewTrackedSession, then Run, then "
        "ApplyDelta)");
  }
  // Polled again by the pipeline; this entry check makes an already-expired
  // deadline fail before any work is done.
  UC_RETURN_IF_ERROR(common::PollCancel(cancel_.get()));
  const int master_size = engine_->environment().indexed_master_size();

  DeltaResult result;
  if (delta.empty() && master_size == known_master_size_) {
    // True no-op: no edits, no master growth — the last run's repairs stand.
    result.generation = generation_;
    return result;
  }

  // Validate every edit before applying any, so a failed ApplyDelta leaves
  // the tracked state untouched.
  const int arity = tracked_->schema().arity();
  for (const data::Tuple& tup : delta.inserts) {
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: insert arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
  }
  for (const auto& [t, tup] : delta.updates) {
    if (t < 0 || t >= tracked_->size()) {
      return Status::InvalidArgument("ApplyDelta: update of unknown tuple " +
                                     std::to_string(t));
    }
    if (!tracked_->live(t)) {
      return Status::InvalidArgument("ApplyDelta: update of deleted tuple " +
                                     std::to_string(t));
    }
    if (tup.arity() != arity) {
      return Status::InvalidArgument(
          "ApplyDelta: update arity " + std::to_string(tup.arity()) +
          " does not match the data schema arity " + std::to_string(arity));
    }
  }
  for (data::TupleId t : delta.deletes) {
    if (t < 0 || t >= tracked_->size()) {
      return Status::InvalidArgument("ApplyDelta: delete of unknown tuple " +
                                     std::to_string(t));
    }
    if (!tracked_->live(t)) {
      return Status::InvalidArgument(
          "ApplyDelta: delete of already-deleted tuple " + std::to_string(t));
    }
  }

  // Stage the edits on a copy of the pristine relation and run the whole
  // pipeline over it: the batch run over the edited relation, against the
  // warm (and possibly grown) match environment. Nothing is committed until
  // it succeeds.
  const auto stage = [&delta](data::Relation* relation) {
    std::vector<data::TupleId> inserted_ids;
    for (const auto& [t, tup] : delta.updates) relation->mutable_tuple(t) = tup;
    for (data::TupleId t : delta.deletes) relation->EraseTuple(t);
    for (const data::Tuple& tup : delta.inserts) {
      inserted_ids.push_back(relation->AddTuple(tup));
    }
    return inserted_ids;
  };
  data::Relation working = pristine_->Clone();
  result.inserted_ids = stage(&working);
  FixJournal run_journal;
  Result<std::vector<PhaseStats>> executed =
      ExecutePipeline(&working, &run_journal);
  if (!executed.ok()) {
    return internal::Annotate(
        executed.status(),
        "ApplyDelta generation " + std::to_string(generation_ + 1) + ": ");
  }

  stage(pristine_.get());
  *tracked_ = std::move(working);
  known_master_size_ = master_size;
  result.generation = ++generation_;
  result.refinement_rounds = 1;
  result.phases = std::move(executed).value();

  // The tuples this delta visibly touched: the edited ones, plus every
  // tuple whose canonical fix rows differ from the previous run's. Both
  // canonical journals are sorted by (tuple, attribute), one row per cell.
  FixJournal canonical = run_journal.Canonicalized();
  std::vector<uint8_t> touched(static_cast<size_t>(tracked_->size()), 0);
  for (const auto& [t, tup] : delta.updates) touched[static_cast<size_t>(t)] = 1;
  for (data::TupleId t : delta.deletes) touched[static_cast<size_t>(t)] = 1;
  for (data::TupleId t : result.inserted_ids) {
    touched[static_cast<size_t>(t)] = 1;
  }
  const std::vector<FixEntry>& before = canonical_.entries();
  const std::vector<FixEntry>& after = canonical.entries();
  const auto cell_less = [](const FixEntry& a, const FixEntry& b) {
    return a.tuple != b.tuple ? a.tuple < b.tuple : a.attribute < b.attribute;
  };
  for (size_t i = 0, j = 0; i < before.size() || j < after.size();) {
    if (j == after.size() ||
        (i < before.size() && cell_less(before[i], after[j]))) {
      touched[static_cast<size_t>(before[i++].tuple)] = 1;
    } else if (i == before.size() || cell_less(after[j], before[i])) {
      touched[static_cast<size_t>(after[j++].tuple)] = 1;
    } else {
      const FixEntry& a = before[i++];
      const FixEntry& b = after[j++];
      if (a.old_value != b.old_value || a.new_value != b.new_value ||
          a.phase != b.phase || a.rule != b.rule) {
        touched[static_cast<size_t>(a.tuple)] = 1;
      }
    }
  }
  for (uint8_t flag : touched) result.affected += flag;
  for (FixEntry entry : run_journal.entries()) {
    if (!touched[static_cast<size_t>(entry.tuple)]) continue;
    entry.generation = generation_;
    journal_.Append(entry);
    result.delta_journal.Append(std::move(entry));
  }
  canonical_ = std::move(canonical);
  return result;
}

std::vector<std::string> Session::PhaseNames() const {
  std::vector<std::string> names;
  names.reserve(phases_.size());
  for (const auto& phase : phases_) names.emplace_back(phase->name());
  return names;
}

}  // namespace uniclean
