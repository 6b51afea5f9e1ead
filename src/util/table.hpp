// ASCII report rendering for the benchmark harness: aligned tables, so
// each bench binary prints the rows of the paper figure it regenerates.
#pragma once

#include <string>
#include <vector>

namespace chronus::util {

/// Column-aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders with a header separator; missing cells print empty.
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace chronus::util
