// CSV import/export for relations. Quoting follows RFC 4180; nulls are
// round-tripped as the token `\N` (configurable).
//
// The readers are safe on untrusted bytes: they never abort. Malformed
// input comes back as a Status, and cells are interned with
// StringPool::TryIntern, so a full string pool returns that call's
// OutOfRange ("StringPool: ...") status instead of CHECK-failing.

#ifndef UNICLEAN_DATA_CSV_H_
#define UNICLEAN_DATA_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"

namespace uniclean {
namespace data {

struct CsvOptions {
  char delimiter = ',';
  std::string null_token = "\\N";
  /// When true, the first row is the header; reading validates it against
  /// the schema, writing emits it.
  bool header = true;
};

/// RFC-4180 field quoting: wraps `field` in double quotes (doubling embedded
/// quotes) when it contains the delimiter, a quote, a newline, or a carriage
/// return; returns it unchanged otherwise. Exposed so other CSV emitters
/// (e.g. the FixJournal) quote identically to WriteCsv.
std::string CsvQuote(const std::string& field, char delimiter = ',');

/// Reads one *logical* CSV record from the stream into `*record`: physical
/// lines are joined with '\n' while an RFC-4180 quoted field is still open,
/// so values containing newlines round-trip. Quote state is tracked with the
/// same lenient rules as ParseCsvRecord (mid-field quotes are literal). A
/// trailing '\r' is stripped per physical line outside quoted fields only.
/// Returns false at end of stream with nothing read; `*lines_read`
/// (optional) receives the number of physical lines consumed. Exposed so
/// other CSV consumers (e.g. the FixJournal reader) parse identically to
/// ReadCsv.
bool ReadCsvRecord(std::istream& in, std::string* record,
                   int* lines_read = nullptr, char delimiter = ',');

/// Splits one logical CSV record into its fields, honoring RFC-4180
/// double-quote escaping. Fails with Corruption on an unterminated quote.
Result<std::vector<std::string>> ParseCsvRecord(const std::string& record,
                                                char delimiter = ',');

/// Parses a relation with the given schema from a stream. With
/// options.header the first non-blank record must name the schema's
/// attributes in order, and a stream without one is rejected. Fails with
/// Corruption on malformed CSV (unterminated quote, missing or mismatched
/// header, arity mismatch) and OutOfRange when the string pool is full.
Result<Relation> ReadCsv(std::istream& in, SchemaPtr schema,
                         const CsvOptions& options = {});

/// Parses a relation from a file path.
Result<Relation> ReadCsvFile(const std::string& path, SchemaPtr schema,
                             const CsvOptions& options = {});

/// Writes a relation to a stream.
Status WriteCsv(std::ostream& out, const Relation& relation,
                const CsvOptions& options = {});

/// Writes a relation to a file path.
Status WriteCsvFile(const std::string& path, const Relation& relation,
                    const CsvOptions& options = {});

/// Reads only the header row of a CSV file and builds a schema from it
/// (attribute names are trimmed). Requires options.header.
Result<SchemaPtr> InferCsvSchema(const std::string& path,
                                 const std::string& relation_name,
                                 const CsvOptions& options = {});

/// Loads per-cell confidences into `*relation` from a CSV with the same
/// shape as the relation: same arity and row count, and with
/// options.header a header row naming the schema's attributes. Cells must
/// parse as numbers in [0, 1]; empty cells and nulls count as 0. Fails
/// with InvalidArgument on a shape or cell error and Corruption on an
/// unterminated quote.
Status ReadConfidenceCsv(std::istream& in, Relation* relation,
                         const CsvOptions& options = {});
Status ReadConfidenceCsvFile(const std::string& path, Relation* relation,
                             const CsvOptions& options = {});

/// Writes the per-cell confidences of `relation` in the shape
/// ReadConfidenceCsv consumes.
Status WriteConfidenceCsv(std::ostream& out, const Relation& relation,
                          const CsvOptions& options = {});
Status WriteConfidenceCsvFile(const std::string& path,
                              const Relation& relation,
                              const CsvOptions& options = {});

}  // namespace data
}  // namespace uniclean

#endif  // UNICLEAN_DATA_CSV_H_
