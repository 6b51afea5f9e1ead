#include "util/table.hpp"

#include <algorithm>
#include <sstream>

namespace chronus::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream os;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << cell << std::string(widths[c] - cell.size(), ' ');
      if (c + 1 < widths.size()) os << "  ";
    }
    os << '\n';
    return os.str();
  };
  std::ostringstream os;
  os << render_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) os << render_row(row);
  return os.str();
}

}  // namespace chronus::util
