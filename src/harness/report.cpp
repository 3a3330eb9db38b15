#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"

namespace espice {

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ESPICE_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  ESPICE_REQUIRE(cells.size() == headers_.size(),
                 "row width does not match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c] << std::string(widths[c] - row[c].size(), ' ')
          << (c + 1 == row.size() ? " |" : " | ");
    }
    out << '\n';
  };
  print_row(headers_);
  out << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-')
        << (c + 1 == headers_.size() ? "|" : "|");
  }
  out << '\n';
  for (const auto& row : rows_) print_row(row);
}

void print_section(std::ostream& out, const std::string& title) {
  out << "\n=== " << title << " ===\n";
}

}  // namespace espice
