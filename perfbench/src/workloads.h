// The benchmark's workloads (see NOTES.md for why each exists). Each one
// generates its inputs from the run's seed, renders them to CSV text before
// anything is timed, hands the system only that text, measures for the
// run's duration and checks every output it timed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// One-shot library clean of DBLP with cold memos (matching-bound).
void RunBatchDblpCold(const RunOptions& options, Report* report);
/// Warm unicleand under a closed loop of 4 CLEAN clients (repair + serve).
void RunServeHospWarm(const RunOptions& options, Report* report);
/// A stream of one-tuple edits into a tracked HOSP session (incremental).
void RunDeltaHospStream(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
