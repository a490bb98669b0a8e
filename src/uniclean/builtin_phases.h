// The three built-in phases of the paper's Fig. 2 pipeline, wrapped as
// Phase implementations. Each forwards the PipelineContext thresholds to
// its core engine, journals every fix with the justifying rule, and reports
// the engine's statistics as PhaseStats counters.

#ifndef UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_
#define UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "uniclean/phase.h"

namespace uniclean {

/// Deterministic fixes with data confidence (§5).
class CRepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "cRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// Reliable fixes with information entropy (§6).
class ERepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "eRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// Heuristic possible fixes yielding a consistent repair (§7).
class HRepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "hRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// The default pipeline — the selected subset of cRepair → eRepair →
/// hRepair in paper order — as per-session factories: what a CleanEngine
/// stores so every NewSession() gets fresh phase instances.
std::vector<PhaseFactory> MakeDefaultPhaseFactories(bool crepair = true,
                                                    bool erepair = true,
                                                    bool hrepair = true);

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_
