#include "serve/safe_csv.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <utility>

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

Result<data::Relation> ParseRelationCsv(const std::string& csv_text,
                                        data::SchemaPtr schema) {
  std::istringstream in(csv_text);
  Result<data::Relation> relation = data::ReadCsv(in, std::move(schema));
  if (!relation.ok()) return ToWire(relation.status());
  return relation;
}

Result<std::vector<data::Tuple>> ParseTupleRows(
    const std::string& csv_text, const data::SchemaPtr& schema,
    bool expect_header) {
  data::CsvOptions options;
  options.header = expect_header;
  std::istringstream in(csv_text);
  Result<data::Relation> rows = data::ReadCsv(in, schema, options);
  if (!rows.ok()) return ToWire(rows.status());
  return rows->tuples();
}

Status ApplyConfidenceCsv(const std::string& csv_text,
                          data::Relation* relation) {
  std::istringstream in(csv_text);
  return ToWire(data::ReadConfidenceCsv(in, relation));
}

Result<std::vector<data::TupleId>> ParseIdList(const std::string& text) {
  std::vector<data::TupleId> ids;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    errno = 0;
    char* end = nullptr;
    long v = std::strtol(line.c_str(), &end, 10);
    if (end == line.c_str() || *end != '\0' || errno == ERANGE || v < 0 ||
        v > INT32_MAX) {
      return Status::InvalidArgument("bad tuple id '" + line + "'");
    }
    ids.push_back(static_cast<data::TupleId>(v));
  }
  return ids;
}

}  // namespace serve
}  // namespace uniclean
