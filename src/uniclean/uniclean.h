// Umbrella header: the public API of the UniClean library. Includes every
// layer's headers — applications (tools/, examples/, bench/) include this
// one; library code includes the specific layer headers instead.
//
// Quickstart. The one public path is EngineBuilder → CleanEngine → Session
// (uniclean/engine.h, uniclean/session.h): build the engine once, then run
// a Session per dirty relation — a one-shot clean is a single session:
//
//   #include "uniclean/uniclean.h"
//   using namespace uniclean;
//
//   auto schema = data::InferCsvSchema("dirty.csv", "data");
//   auto d = data::ReadCsvFile("dirty.csv", *schema);
//   data::ReadConfidenceCsvFile("confidence.csv", &*d);
//   auto engine = EngineBuilder()
//                     .WithDataSchema(*schema)   // rules parse against it
//                     .WithMasterCsv("master.csv")
//                     .WithRulesFile("rules.txt")
//                     .WithEta(0.8)
//                     .BuildEngine();           // shared_ptr<CleanEngine>
//   Session session = (*engine)->NewSession();
//   auto result = session.Run(&*d);             // Result<CleanResult>
//   // *d is now consistent; result->journal records every repaired cell
//   // with its phase and justifying rule.
//
// The engine is immutable and thread-safe, so any number of sessions may
// run concurrently against its warm match environment. Incremental cleaning
// rides on the same pair — a tracked session folds edits in by one warm
// re-run of the edited relation:
//
//   Session session = (*engine)->NewTrackedSession();
//   session.Run(&d);                           // batch clean + pristine copy
//   Delta delta;
//   delta.updates.emplace_back(tuple_id, edited_tuple);
//   auto dr = session.ApplyDelta(delta);       // Result<DeltaResult>
//   FixJournal canon = session.CanonicalJournal();

#ifndef UNICLEAN_UNICLEAN_UNICLEAN_H_
#define UNICLEAN_UNICLEAN_UNICLEAN_H_

#include "baselines/quaid.h"
#include "baselines/sortn.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"
#include "discovery/cfd_discovery.h"
#include "discovery/fd_discovery.h"
#include "discovery/md_calibration.h"
#include "eval/metrics.h"
#include "gen/corrupt.h"
#include "gen/dataset.h"
#include "reasoning/chase.h"
#include "reasoning/consistency.h"
#include "reasoning/dependency_graph.h"
#include "reasoning/minimal_cover.h"
#include "rules/cfd.h"
#include "rules/md.h"
#include "rules/parser.h"
#include "rules/ruleset.h"
#include "rules/violation.h"
#include "similarity/metrics.h"
#include "similarity/predicate.h"
#include "similarity/suffix_tree.h"
#include "uniclean/engine.h"
#include "uniclean/fix_journal.h"
#include "uniclean/phase.h"
#include "uniclean/session.h"

#endif  // UNICLEAN_UNICLEAN_UNICLEAN_H_
