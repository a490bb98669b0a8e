#include "serve/safe_csv.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "data/csv.h"

namespace uniclean {
namespace serve {

namespace {

/// The wire mapping: a malformed document is a bad request, not a broken
/// frame.
Status ToWire(const Status& status) {
  if (status.code() == StatusCode::kCorruption) {
    return Status::InvalidArgument(status.message());
  }
  return status;
}

}  // namespace

Result<data::Relation> ParseRelationCsv(std::string_view csv_text,
                                        data::SchemaPtr schema) {
  std::istringstream in{std::string(csv_text)};
  Result<data::Relation> relation = data::ReadCsv(in, std::move(schema));
  if (!relation.ok()) return ToWire(relation.status());
  return relation;
}

Result<std::vector<data::Tuple>> ParseTupleRows(
    std::string_view csv_text, const data::SchemaPtr& schema,
    bool expect_header) {
  data::CsvOptions options;
  options.header = expect_header;
  std::istringstream in{std::string(csv_text)};
  Result<data::Relation> rows = data::ReadCsv(in, schema, options);
  if (!rows.ok()) return ToWire(rows.status());
  return rows->tuples();
}

Status ApplyConfidenceCsv(std::string_view csv_text,
                          data::Relation* relation) {
  std::istringstream in{std::string(csv_text)};
  return ToWire(data::ReadConfidenceCsv(in, relation));
}

Result<std::vector<data::TupleId>> ParseIdList(std::string_view text) {
  std::vector<data::TupleId> ids;
  for (const std::string& field : Split(text, '\n')) {
    std::string_view line = field;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    data::TupleId id = 0;
    if (!ParseNumber(line, &id) || id < 0) {
      return Status::InvalidArgument("bad tuple id '" + std::string(line) +
                                     "'");
    }
    ids.push_back(id);
  }
  return ids;
}

}  // namespace serve
}  // namespace uniclean
