#include "data/csv.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace uniclean {
namespace data {

namespace {

bool NeedsQuoting(const std::string& s, char delim) {
  return s.find(delim) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos ||
         s.find('\r') != std::string::npos;
}

/// How the shared scanner classified one step of input.
enum class CsvStep {
  kContent,       ///< a literal character of the current field
  kEscapedQuote,  ///< "" inside a quoted field: one literal '"'
  kQuoteOpen,     ///< opening quote (no field content)
  kQuoteClose,    ///< closing quote (no field content)
  kDelimiter,     ///< field separator
};

/// The single RFC-4180 quote state machine behind both ParseCsvRecord and
/// ReadCsvRecord, so the two can never disagree on where a quoted field (and
/// hence a logical record) ends. Lenient rule: a quote opens a quoted field
/// only at field *start*; mid-field quotes are literal content.
class CsvScanner {
 public:
  explicit CsvScanner(char delimiter) : delim_(delimiter) {}

  bool in_quotes() const { return in_quotes_; }

  /// Classifies s[i] (peeking s[i+1] for escaped quotes) and advances the
  /// state. Returns the number of characters consumed: 1, or 2 for "".
  size_t Step(const std::string& s, size_t i, CsvStep* step) {
    const char c = s[i];
    if (in_quotes_) {
      if (c == '"') {
        if (i + 1 < s.size() && s[i + 1] == '"') {
          field_empty_ = false;
          *step = CsvStep::kEscapedQuote;
          return 2;
        }
        in_quotes_ = false;
        *step = CsvStep::kQuoteClose;
        return 1;
      }
      field_empty_ = false;
      *step = CsvStep::kContent;
      return 1;
    }
    if (c == '"' && field_empty_) {
      in_quotes_ = true;
      *step = CsvStep::kQuoteOpen;
      return 1;
    }
    if (c == delim_) {
      field_empty_ = true;
      *step = CsvStep::kDelimiter;
      return 1;
    }
    field_empty_ = false;
    *step = CsvStep::kContent;
    return 1;
  }

  /// Advances the state over a whole string, ignoring the content.
  void Scan(const std::string& s) {
    CsvStep step;
    for (size_t i = 0; i < s.size(); i += Step(s, i, &step)) {
    }
  }

 private:
  char delim_;
  bool in_quotes_ = false;
  bool field_empty_ = true;
};

/// Compares a header record with the schema's attribute names; returns ""
/// when they match, otherwise what differs.
template <typename Field>
std::string HeaderMismatch(const std::vector<Field>& fields,
                           const Schema& schema) {
  if (static_cast<int>(fields.size()) != schema.arity()) {
    return "header arity mismatch: got " + std::to_string(fields.size()) +
           " columns, schema has " + std::to_string(schema.arity());
  }
  for (int a = 0; a < schema.arity(); ++a) {
    if (fields[static_cast<size_t>(a)] != schema.attribute_name(a)) {
      return "header mismatch at column " + std::to_string(a) +
             ": expected '" + schema.attribute_name(a) + "', got '" +
             std::string(fields[static_cast<size_t>(a)]) + "'";
    }
  }
  return "";
}

}  // namespace

bool ReadCsvRecord(std::istream& in, std::string* record, int* lines_read,
                   char delimiter) {
  record->clear();
  int lines = 0;
  std::string line;
  CsvScanner scanner(delimiter);
  while (std::getline(in, line)) {
    ++lines;
    if (lines > 1) {
      scanner.Scan("\n");  // the joined newline is content of the open field
      record->push_back('\n');
    }
    // A line with no quote character cannot change the quote state, so the
    // per-character scan is skippable — the common case for machine-written
    // CSV, and a measured win on the engine-warmup path that re-reads the
    // master file.
    const bool has_quote = line.find('"') != std::string::npos;
    if (has_quote || scanner.in_quotes()) {
      scanner.Scan(line);
    }
    // Strip a CRLF's '\r' only outside an open quoted field — inside one it
    // is field *content* (a value holding "\r\n" must round-trip exactly).
    if (!scanner.in_quotes() && !line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    record->append(line);
    if (!scanner.in_quotes()) break;
  }
  if (lines_read != nullptr) *lines_read = lines;
  return lines > 0;
}

Result<std::vector<std::string>> ParseCsvRecord(const std::string& line,
                                                char delim) {
  std::vector<std::string> fields;
  std::string field;
  CsvScanner scanner(delim);
  size_t i = 0;
  while (i < line.size()) {
    CsvStep step;
    const size_t at = i;
    i += scanner.Step(line, i, &step);
    switch (step) {
      case CsvStep::kContent:
        field.push_back(line[at]);
        break;
      case CsvStep::kEscapedQuote:
        field.push_back('"');
        break;
      case CsvStep::kDelimiter:
        fields.push_back(std::move(field));
        field.clear();
        break;
      case CsvStep::kQuoteOpen:
      case CsvStep::kQuoteClose:
        break;
    }
  }
  if (scanner.in_quotes()) {
    // An unterminated quote makes ReadCsvRecord slurp physical lines to EOF,
    // so the offending "record" can be the whole rest of the file — echo
    // only its head in the diagnostic.
    constexpr size_t kMaxEcho = 160;
    return Status::Corruption(
        "unterminated quote in CSV record: " +
        (line.size() <= kMaxEcho ? line
                                 : line.substr(0, kMaxEcho) + "... (" +
                                       std::to_string(line.size()) +
                                       " bytes)"));
  }
  fields.push_back(std::move(field));
  return fields;
}

std::string CsvQuote(const std::string& field, char delimiter) {
  if (!NeedsQuoting(field, delimiter)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Result<Relation> ReadCsv(std::istream& in, SchemaPtr schema,
                         const CsvOptions& options) {
  Relation relation(schema);
  std::string line;
  bool saw_header = false;
  int line_no = 0;
  int lines_read = 0;
  // Reused across records: `owned` backs the quoted (unescaping) path,
  // `fields` views either the record itself (fast path) or `owned`.
  std::vector<std::string> owned;
  std::vector<std::string_view> fields;
  // Logical records: ReadCsvRecord joins physical lines while a quoted field
  // is open, so values containing newlines round-trip through Write/Read.
  while (ReadCsvRecord(in, &line, &lines_read, options.delimiter)) {
    line_no += lines_read;
    if (line.empty()) continue;
    fields.clear();
    if (line.find('"') == std::string::npos) {
      // No quotes: fields are plain delimiter splits, viewed in place — no
      // per-field allocation, no per-character state machine.
      size_t start = 0;
      for (;;) {
        const size_t d = line.find(options.delimiter, start);
        if (d == std::string::npos) {
          fields.emplace_back(line.data() + start, line.size() - start);
          break;
        }
        fields.emplace_back(line.data() + start, d - start);
        start = d + 1;
      }
    } else {
      UC_ASSIGN_OR_RETURN(owned, ParseCsvRecord(line, options.delimiter));
      fields.assign(owned.begin(), owned.end());
    }
    if (options.header && !saw_header) {
      saw_header = true;
      const std::string mismatch = HeaderMismatch(fields, *schema);
      if (!mismatch.empty()) return Status::Corruption("CSV " + mismatch);
      continue;
    }
    if (static_cast<int>(fields.size()) != schema->arity()) {
      return Status::Corruption(
          "CSV record arity mismatch at line " + std::to_string(line_no) +
          ": got " + std::to_string(fields.size()) + " columns, expected " +
          std::to_string(schema->arity()));
    }
    Tuple t(schema->arity());
    for (int a = 0; a < schema->arity(); ++a) {
      const std::string_view f = fields[static_cast<size_t>(a)];
      Value v = Value::Null();
      if (f != options.null_token) {
        // The one interning site for CSV input: pool exhaustion comes back
        // as TryIntern's OutOfRange status, untouched.
        UC_ASSIGN_OR_RETURN(ValueId id, StringPool::Global().TryIntern(f));
        v = Value::FromId(id);
      }
      t.set_value(a, v);
    }
    relation.AddTuple(std::move(t));
  }
  if (options.header && !saw_header) {
    return Status::Corruption("CSV is empty (header row required)");
  }
  return relation;
}

Result<Relation> ReadCsvFile(const std::string& path, SchemaPtr schema,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  return ReadCsv(in, std::move(schema), options);
}

Status WriteCsv(std::ostream& out, const Relation& relation,
                const CsvOptions& options) {
  const Schema& schema = relation.schema();
  if (options.header) {
    for (int a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << options.delimiter;
      out << CsvQuote(schema.attribute_name(a), options.delimiter);
    }
    out << '\n';
  }
  for (const Tuple& t : relation.tuples()) {
    for (int a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << options.delimiter;
      const Value& v = t.value(a);
      out << (v.is_null() ? options.null_token
                          : CsvQuote(v.str(), options.delimiter));
    }
    out << '\n';
  }
  if (!out.good()) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const std::string& path, const Relation& relation,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open CSV file for write: " + path);
  }
  return WriteCsv(out, relation, options);
}

Result<SchemaPtr> InferCsvSchema(const std::string& path,
                                 const std::string& relation_name,
                                 const CsvOptions& options) {
  if (!options.header) {
    return Status::InvalidArgument(
        "InferCsvSchema requires a CSV with a header row");
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  std::string header;
  if (!ReadCsvRecord(in, &header, nullptr, options.delimiter)) {
    return Status::Corruption("empty CSV: " + path);
  }
  UC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                      ParseCsvRecord(header, options.delimiter));
  for (std::string& name : names) name = std::string(Trim(name));
  return MakeSchema(relation_name, std::move(names));
}

Status ReadConfidenceCsv(std::istream& in, Relation* relation,
                         const CsvOptions& options) {
  UC_CHECK(relation != nullptr);
  const Schema& schema = relation->schema();
  std::string line;
  bool saw_header = !options.header;
  TupleId row = 0;
  int line_no = 0;
  int lines_read = 0;
  while (ReadCsvRecord(in, &line, &lines_read, options.delimiter)) {
    line_no += lines_read;
    if (line.empty()) continue;
    UC_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                        ParseCsvRecord(line, options.delimiter));
    if (!saw_header) {
      saw_header = true;
      const std::string mismatch = HeaderMismatch(fields, schema);
      if (!mismatch.empty()) {
        return Status::InvalidArgument("confidence CSV " + mismatch);
      }
      continue;
    }
    if (static_cast<int>(fields.size()) != schema.arity()) {
      return Status::InvalidArgument(
          "confidence CSV arity mismatch at line " + std::to_string(line_no) +
          ": expected " + std::to_string(schema.arity()) + " fields, got " +
          std::to_string(fields.size()));
    }
    if (row >= relation->size()) {
      return Status::InvalidArgument(
          "confidence CSV has more rows than the data relation (" +
          std::to_string(relation->size()) + ")");
    }
    for (AttributeId a = 0; a < schema.arity(); ++a) {
      const std::string& field = fields[static_cast<size_t>(a)];
      double cf = 0.0;
      if (!field.empty() && field != options.null_token) {
        errno = 0;
        char* end = nullptr;
        cf = std::strtod(field.c_str(), &end);
        if (end == field.c_str() || *end != '\0' || errno == ERANGE) {
          return Status::InvalidArgument(
              "confidence CSV cell is not a number at line " +
              std::to_string(line_no) + ": '" + field + "'");
        }
      }
      // Negated so that NaN is rejected too.
      if (!(cf >= 0.0 && cf <= 1.0)) {
        return Status::InvalidArgument(
            "confidence out of [0, 1] at line " + std::to_string(line_no) +
            ": " + field);
      }
      relation->mutable_tuple(row).set_confidence(a, cf);
    }
    ++row;
  }
  if (!saw_header) {
    return Status::InvalidArgument(
        "confidence CSV is empty (header row required)");
  }
  if (row != relation->size()) {
    return Status::InvalidArgument(
        "confidence CSV row count mismatch: expected " +
        std::to_string(relation->size()) + ", got " + std::to_string(row));
  }
  return Status::OK();
}

Status ReadConfidenceCsvFile(const std::string& path, Relation* relation,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open confidence CSV: " + path);
  }
  return ReadConfidenceCsv(in, relation, options);
}

Status WriteConfidenceCsv(std::ostream& out, const Relation& relation,
                          const CsvOptions& options) {
  const Schema& schema = relation.schema();
  if (options.header) {
    for (AttributeId a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << options.delimiter;
      out << CsvQuote(schema.attribute_name(a), options.delimiter);
    }
    out << '\n';
  }
  // Shortest round-trip formatting: re-reading the file restores the exact
  // confidences, so cf >= η decisions survive a save/load cycle.
  char buf[32];
  for (TupleId t = 0; t < relation.size(); ++t) {
    for (AttributeId a = 0; a < schema.arity(); ++a) {
      if (a > 0) out << options.delimiter;
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf),
                                     relation.tuple(t).confidence(a));
      UC_CHECK(ec == std::errc());
      out.write(buf, static_cast<std::streamsize>(ptr - buf));
    }
    out << '\n';
  }
  if (!out.good()) return Status::Internal("confidence CSV write failed");
  return Status::OK();
}

Status WriteConfidenceCsvFile(const std::string& path,
                              const Relation& relation,
                              const CsvOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open confidence CSV for write: " + path);
  }
  return WriteConfidenceCsv(out, relation, options);
}

}  // namespace data
}  // namespace uniclean
