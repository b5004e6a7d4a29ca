// ASCII table and CSV output.
//
// The claims ledger, the benches and the CLI print their results as
// aligned ASCII tables (human-readable, diffable); the CLI can emit the
// same rows as CSV for plotting.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace pe {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Adds a row.  Rows shorter than the header are padded with empty cells;
  // longer rows are an error (asserted).
  void AddRow(std::vector<std::string> row);

  // Convenience: formats a double with the given precision.
  static std::string Num(double v, int precision = 2);
  static std::string Int(long long v);

  // Renders an aligned ASCII table with a header rule.
  void Print(std::ostream& os) const;

  // Renders RFC-4180-ish CSV (fields containing comma/quote/newline are
  // quoted, quotes doubled).
  void PrintCsv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pe
