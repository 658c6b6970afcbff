// Console table emitter used by the benchmark harness to print the rows and
// series that each paper figure reports.
#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace bsched {

// Accumulates rows of string cells and renders them as an aligned ASCII
// table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Adds one row; the row is padded or truncated to the header width.
  void AddRow(std::vector<std::string> cells);

  void RenderAscii(std::ostream& os) const;

  // Formats a double compactly (fixed precision, no trailing spaces).
  static std::string Num(double v, int precision = 1);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bsched

#endif  // SRC_COMMON_TABLE_H_
