#include "report/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/error.h"

namespace nse
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    NSE_CHECK(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    NSE_CHECK(cells.size() == headers_.size(),
              "row width ", cells.size(), " != header width ",
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << "  ";
            if (i == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[i])) << row[i];
        }
        os << "\n";
    };
    emit(headers_);
    size_t total = headers_.size() - 1;
    for (size_t w : widths)
        total += w + 1;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

std::string
fmtF(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
fmtMillions(uint64_t cycles, int decimals)
{
    return fmtF(static_cast<double>(cycles) / 1e6, decimals);
}

std::string
fmtKb(uint64_t bytes, int decimals)
{
    return fmtF(static_cast<double>(bytes) / 1024.0, decimals);
}

} // namespace nse
