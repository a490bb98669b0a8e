// The wire's CSV error contract. Client-supplied relations, delta rows and
// confidences decode through the library readers (data::ReadCsv and
// data::ReadConfidenceCsv), which never abort on untrusted bytes: they
// intern through StringPool::TryIntern and report every failure as a
// Status. These wrappers add one mapping on top. A malformed document is
// the client's fault, so the readers' Corruption travels as
// InvalidArgument; Corruption on the wire is kept for broken frames, which
// the cluster router reads as a failed replica. Every other code passes
// through unchanged, including pool exhaustion's OutOfRange ("StringPool:
// ..."), which WireErrorCode turns into ResourceExhausted.

#ifndef UNICLEAN_SERVE_SAFE_CSV_H_
#define UNICLEAN_SERVE_SAFE_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "data/schema.h"

namespace uniclean {
namespace serve {

/// Parses `csv_text` (header row required, matching `schema`) into a
/// relation. Fails with InvalidArgument on malformed CSV, a missing or
/// mismatched header or an arity mismatch, and OutOfRange on pool
/// exhaustion.
Result<data::Relation> ParseRelationCsv(const std::string& csv_text,
                                        data::SchemaPtr schema);

/// Parses a CSV of rows shaped like `schema` into tuples (same cell
/// semantics as ParseRelationCsv). Delta inserts travel as a full CSV
/// document (expect_header = true, validated against the schema); delta
/// update rows are header-less, index-aligned with their id list
/// (expect_header = false).
Result<std::vector<data::Tuple>> ParseTupleRows(const std::string& csv_text,
                                                const data::SchemaPtr& schema,
                                                bool expect_header);

/// Applies a confidence CSV (same shape as the relation, header row
/// required) to `*relation`: every cell must parse as a number in [0, 1].
/// Fails with InvalidArgument on any malformed input.
Status ApplyConfidenceCsv(const std::string& csv_text,
                          data::Relation* relation);

/// Parses a newline-separated list of non-negative decimal tuple ids
/// (blank lines ignored). Fails with InvalidArgument on anything else.
Result<std::vector<data::TupleId>> ParseIdList(const std::string& text);

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_SAFE_CSV_H_
