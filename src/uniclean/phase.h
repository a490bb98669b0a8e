// The vocabulary of the Session pipeline: the paper's Fig. 2 phases —
// cRepair (§5), eRepair (§6), hRepair (§7) — always run in that order,
// over the selected subset (EngineBuilder::WithDefaultPhases). This header
// names the phases and carries what a run reports about each of them: the
// validated thresholds they read, their PhaseStats, and the PhaseEvent a
// progress callback observes.

#ifndef UNICLEAN_UNICLEAN_PHASE_H_
#define UNICLEAN_UNICLEAN_PHASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/md_matcher.h"
#include "data/relation.h"

namespace uniclean {

// Phase names, as journals, PhaseStats::phase and PhaseNames() spell them.

/// Deterministic fixes with data confidence (§5).
inline constexpr std::string_view kCRepairPhase = "cRepair";
/// Reliable fixes with information entropy (§6).
inline constexpr std::string_view kERepairPhase = "eRepair";
/// Heuristic possible fixes yielding a consistent repair (§7).
inline constexpr std::string_view kHRepairPhase = "hRepair";

/// Validated pipeline thresholds, shared by all phases.
struct PipelineConfig {
  /// Confidence threshold η (§5), in [0, 1].
  double eta = 0.8;
  /// Update threshold δ1 (§6), >= 0.
  int delta1 = 5;
  /// Entropy threshold δ2 (§6), in [0, 1].
  double delta2 = 0.8;
  /// Suffix-tree blocking configuration for MD matching (§5.2).
  core::MdMatcherOptions matcher;
};

/// What one phase did. Session::Run() collects one per executed phase.
struct PhaseStats {
  /// Phase name: kCRepairPhase, kERepairPhase or kHRepairPhase.
  std::string phase;
  /// Cells this phase changed (fix events; equals the phase's journal entry
  /// count).
  int fixes = 0;
  /// Record matches identified while cleaning: (data tuple, master tuple).
  std::vector<std::pair<data::TupleId, data::TupleId>> matches;
  /// Phase-specific diagnostic counters, e.g. ("conflicts", 2).
  std::vector<std::pair<std::string, int64_t>> counters;

  /// Value of a named counter, 0 when absent.
  int64_t counter(std::string_view name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

/// Progress notification delivered to the Session's progress callback
/// (Session::set_progress_callback) before and after every phase.
struct PhaseEvent {
  enum class Kind { kPhaseStarted, kPhaseFinished };
  Kind kind = Kind::kPhaseStarted;
  /// 0-based phase index and pipeline length.
  int index = 0;
  int total = 0;
  std::string_view phase;
  /// Stats of the finished phase; null for kPhaseStarted.
  const PhaseStats* stats = nullptr;
  /// The pipeline's data relation in its current state.
  const data::Relation* data = nullptr;
};

using ProgressCallback = std::function<void(const PhaseEvent&)>;

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_PHASE_H_
