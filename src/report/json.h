/**
 * @file
 * Machine-readable experiment output: every experiment emits a
 * BENCH_<name>.json next to (i.e. in addition to) its text tables, so
 * regression tooling and plotting scripts consume structure instead
 * of scraping aligned columns.
 *
 * The shape is uniform across all benches:
 *
 *   {
 *     "bench": "<name>",
 *     "metrics": {"runs": 12, "stallCycles": 34, ...},
 *     "tables": [
 *       {"label": "...", "headers": [...], "rows": [[...], ...]},
 *       ...
 *     ],
 *     "checks": [
 *       {"name": "replay_mismatches", "value": 0, "op": "==",
 *        "threshold": 0, "pass": true},
 *       ...
 *     ]
 *   }
 *
 * "metrics" carries the run counters of the observability layer
 * (obs/metrics.h): stall totals, retry counts, degraded cycles, event
 * counts. "checks" lists the pass/fail assertions the bench declares
 * over its own metrics and tables; the bench driver fails when any
 * does not pass. Both are always present (empty when a bench sets
 * none) so consumers can rely on the shape.
 */

#ifndef NSE_REPORT_JSON_H
#define NSE_REPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report/table.h"

namespace nse
{

/** JSON string literal with standard escapes. */
std::string jsonQuote(const std::string &s);

/** Comparison operator of a declared check. */
enum class CheckOp : uint8_t
{
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
};

/** Collects a bench's tables, metrics and checks and writes them. */
class BenchJson
{
  public:
    explicit BenchJson(std::string bench_name);

    /** Record one rendered table under a label ("" for the only one). */
    void addTable(const std::string &label, const Table &table);

    /** Set one "metrics" counter (last set wins; insertion order is
     *  preserved in the document). */
    void setMetric(const std::string &key, uint64_t value);
    void setMetric(const std::string &key, double value);

    /** The value of a metric set earlier (FatalError when unset). */
    double metric(const std::string &key) const;

    /** Declare the check `metric op threshold` on a metric set
     *  earlier; returns whether it passes. */
    bool check(const std::string &metric, CheckOp op, double threshold);

    /** Declare the check that a table labelled `label` was added. */
    bool checkTable(const std::string &label);

    /** One line per declared check that failed. */
    std::vector<std::string> failedChecks() const;

    const std::string &name() const { return name_; }

    /** Serialize to the canonical JSON document. */
    std::string str() const;

    /**
     * Write BENCH_<name>.json. The directory comes from the
     * NSE_BENCH_JSON_DIR environment variable, defaulting to the
     * current working directory; NSE_BENCH_JSON_DIR=off suppresses
     * the file entirely. Returns the path written ("" if suppressed
     * or on I/O failure — emitting JSON never fails a bench, but a
     * failure prints a one-line warning to stderr so CI smoke checks
     * that assert on the file are not left guessing).
     */
    std::string write() const;

  private:
    struct Entry
    {
        std::string label;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    struct Check
    {
        std::string name;
        double value;
        CheckOp op;
        double threshold;
        bool pass;
    };

    void setMetricRaw(const std::string &key, std::string rendered);
    bool addCheck(std::string name, double value, CheckOp op,
                  double threshold);

    std::string name_;
    std::vector<Entry> tables_;
    /** (key, rendered JSON value), in insertion order. */
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::vector<Check> checks_;
};

} // namespace nse

#endif // NSE_REPORT_JSON_H
