#include "base/table.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/str.hh"

namespace irtherm
{

TextTable::TextTable(std::vector<std::string> header_)
    : header(std::move(header_))
{
    if (header.empty())
        fatal("TextTable: header must have at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != header.size()) {
        fatal("TextTable: row has ", cells.size(), " cells, expected ",
              header.size());
    }
    rows.push_back(std::move(cells));
}

void
TextTable::addRow(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(formatFixed(v, precision));
    addRow(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size()) {
                os << std::string(widths[c] - row[c].size() + 2, ' ');
            }
        }
        os << "\n";
    };

    print_row(header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        print_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    // Each row is built in one string and written once.
    std::string line;
    auto print_row = [&](const std::vector<std::string> &row) {
        line.clear();
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0)
                line += ',';
            const std::string &s = row[c];
            if (s.find_first_of(",\"\n\r") == std::string::npos) {
                line += s;
                continue;
            }
            line += '"';
            for (char ch : s) {
                if (ch == '"')
                    line += '"';
                line += ch;
            }
            line += '"';
        }
        line += '\n';
        os << line;
    };
    print_row(header);
    for (const auto &row : rows)
        print_row(row);
}

} // namespace irtherm
