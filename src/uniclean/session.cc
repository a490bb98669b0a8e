#include "uniclean/session.h"

#include <algorithm>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "uniclean/detail.h"
#include "uniclean/engine.h"

namespace uniclean {

namespace {

/// A FixObserver that appends one journal entry per fix under `phase`,
/// resolving rule ids to names against the engine's rule set.
core::FixObserver JournalObserver(FixJournal* journal,
                                  const rules::RuleSet& rules,
                                  const data::Relation& data,
                                  std::string_view phase) {
  return [journal, &rules, &data, phase](data::TupleId t, data::AttributeId a,
                                         const data::Value& old_value,
                                         const data::Value& new_value,
                                         rules::RuleId rule) {
    FixEntry entry;
    entry.tuple = t;
    entry.attr = a;
    entry.attribute = data.schema().attribute_name(a);
    entry.old_value = old_value;
    entry.new_value = new_value;
    entry.phase = std::string(phase);
    if (rule >= 0 && rule < rules.num_rules()) {
      entry.rule = rules.rule_name(rule);
    }
    journal->Append(std::move(entry));
  };
}

// The three core engines, each run as one pipeline phase: the engine's
// thresholds in, the phase's PhaseStats out. A tripped cancel token comes
// back as the engine's interrupt status.

Result<PhaseStats> RunCRepair(data::Relation* data,
                              const core::MatchEnvironment& env,
                              const PipelineConfig& config,
                              core::FixObserver on_fix,
                              const common::CancelToken* cancel) {
  core::CRepairOptions opts;
  opts.eta = config.eta;
  opts.on_fix = std::move(on_fix);
  opts.cancel = cancel;
  const core::CRepairStats stats = core::CRepair(data, env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);
  PhaseStats out;
  out.fixes = stats.deterministic_fixes;
  out.matches = stats.md_matches;
  out.counters = {{"confidence_upgrades", stats.confidence_upgrades},
                  {"rule_applications", stats.rule_applications},
                  {"conflicts", stats.conflicts}};
  return out;
}

Result<PhaseStats> RunERepair(data::Relation* data,
                              const core::MatchEnvironment& env,
                              const PipelineConfig& config,
                              core::FixObserver on_fix,
                              const common::CancelToken* cancel) {
  core::ERepairOptions opts;
  opts.delta1 = config.delta1;
  opts.delta2 = config.delta2;
  opts.eta = config.eta;
  opts.on_fix = std::move(on_fix);
  opts.cancel = cancel;
  const core::ERepairStats stats = core::ERepair(data, env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);
  PhaseStats out;
  out.fixes = stats.reliable_fixes;
  out.matches = stats.md_matches;
  out.counters = {
      {"groups_resolved", stats.groups_resolved},
      {"groups_skipped_high_entropy", stats.groups_skipped_high_entropy},
      {"passes", stats.passes}};
  return out;
}

Result<PhaseStats> RunHRepair(data::Relation* data,
                              const core::MatchEnvironment& env,
                              core::FixObserver on_fix,
                              const common::CancelToken* cancel) {
  core::HRepairOptions opts;
  opts.on_fix = std::move(on_fix);
  opts.cancel = cancel;
  const core::HRepairStats stats = core::HRepair(data, env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);
  PhaseStats out;
  out.fixes = stats.possible_fixes;
  out.matches = stats.md_matches;
  out.counters = {{"merges", stats.merges},
                  {"nulls_introduced", stats.nulls_introduced},
                  {"passes", stats.passes},
                  {"anomalies", stats.anomalies}};
  return out;
}

}  // namespace

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
  const std::vector<std::string_view>& phases = engine_->phases_;
  const core::MatchEnvironment& env = engine_->environment();
  const PipelineConfig& config = engine_->config();
  const common::CancelToken* cancel = cancel_.get();

  const int total = static_cast<int>(phases.size());
  std::vector<PhaseStats> executed;
  executed.reserve(phases.size());
  for (int i = 0; i < total; ++i) {
    UC_RETURN_IF_ERROR(common::PollCancel(cancel));
    const std::string_view name = phases[static_cast<size_t>(i)];
    PhaseEvent event;
    event.kind = PhaseEvent::Kind::kPhaseStarted;
    event.index = i;
    event.total = total;
    event.phase = name;
    event.data = data;
    if (progress_) progress_(event);
    core::FixObserver on_fix =
        JournalObserver(journal, engine_->rules(), *data, name);
    Result<PhaseStats> stats =
        name == kCRepairPhase
            ? RunCRepair(data, env, config, std::move(on_fix), cancel)
        : name == kERepairPhase
            ? RunERepair(data, env, config, std::move(on_fix), cancel)
            : RunHRepair(data, env, std::move(on_fix), cancel);
    if (!stats.ok()) {
      return internal::Annotate(stats.status(),
                                "phase '" + std::string(name) + "': ");
    }
    PhaseStats phase_stats = std::move(stats).value();
    phase_stats.phase = std::string(name);
    executed.push_back(std::move(phase_stats));
    if (progress_) {
      event.kind = PhaseEvent::Kind::kPhaseFinished;
      event.stats = &executed.back();
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

  DeltaResult result;
  if (delta.empty()) {
    // No edits: the last run's repairs stand.
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
  // warm match environment. Nothing is committed until it succeeds.
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
  return engine_ != nullptr ? engine_->PhaseNames()
                            : std::vector<std::string>();
}

}  // namespace uniclean
