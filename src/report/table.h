/**
 * @file
 * Fixed-width table rendering shared by the bench experiments, so
 * every reproduced table prints in the same aligned, diffable format.
 */

#ifndef NSE_REPORT_TABLE_H
#define NSE_REPORT_TABLE_H

#include <string>
#include <vector>

namespace nse
{

/** A simple right-aligned text table with a left-aligned first column. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header rule. */
    std::string render() const;

    size_t rowCount() const { return rows_.size(); }
    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers used by the bench experiments. */
std::string fmtF(double v, int decimals = 1);
std::string fmtMillions(uint64_t cycles, int decimals = 0);
std::string fmtKb(uint64_t bytes, int decimals = 0);

} // namespace nse

#endif // NSE_REPORT_TABLE_H
