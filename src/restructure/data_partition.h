/**
 * @file
 * Global-data partitioning (paper §7.3).
 *
 * Splits each class's global data into
 *  - *needed-first* bytes: the structural prefix any loader requires
 *    before executing anything in the class (header, interface table,
 *    field table, class attributes, and the constant-pool entries they
 *    reference);
 *  - per-method GlobalMethodData (GMD): for each method, the
 *    constant-pool entries first required by that method under a given
 *    first-use ordering (its name/descriptor strings, plus the closure
 *    of every entry its code references);
 *  - *unused* bytes: entries no method references.
 *
 * With partitioning, a stream carries [needed-first][GMD m1][m1]
 * [GMD m2][m2]...[unused], so execution no longer waits for the whole
 * constant pool (the dominant share of global data, Table 8).
 */

#ifndef NSE_RESTRUCTURE_DATA_PARTITION_H
#define NSE_RESTRUCTURE_DATA_PARTITION_H

#include <set>
#include <vector>

#include "analysis/first_use.h"
#include "program/program.h"

namespace nse
{

/** Where one constant-pool entry was assigned. */
struct CpAssignment
{
    /** -1 = needed first, -2 = unused, else owning method index. */
    int32_t owner = -2;
    size_t bytes = 0;
};

/** Partition of one class's global data. */
struct ClassPartition
{
    /** Structural prefix bytes (incl. non-cpool global sections). */
    uint64_t neededFirstBytes = 0;
    /** GMD bytes per method (indexed by original method index). */
    std::vector<uint64_t> gmdBytes;
    /** Bytes of entries referenced by no method. */
    uint64_t unusedBytes = 0;
    /** Per-cp-index assignment (diagnostics and Table 9 analysis). */
    std::vector<CpAssignment> assignment;

    uint64_t
    gmdTotal() const
    {
        uint64_t sum = 0;
        for (uint64_t b : gmdBytes)
            sum += b;
        return sum;
    }

    uint64_t
    total() const
    {
        return neededFirstBytes + gmdTotal() + unusedBytes;
    }
};

/** Whole-program partition plus Table 9 style aggregates. */
struct DataPartition
{
    std::vector<ClassPartition> classes;

    uint64_t neededFirstBytes() const;
};

/**
 * Partition every class's global data against a first-use ordering.
 * The ordering determines which method's GMD claims a shared entry
 * (the earliest user).
 */
DataPartition partitionGlobalData(const Program &prog,
                                  const FirstUseOrder &order);

/**
 * Table 9 aggregates with execution knowledge: entries whose every
 * claiming method never executed are counted as unused (the paper's
 * "% Globals Unused" reflects the run, e.g. Jess executes 47% of its
 * methods and shows 20% unused globals).
 */
struct GlobalDataUsage
{
    uint64_t neededFirst = 0;
    uint64_t inMethods = 0;
    uint64_t unused = 0;

    uint64_t total() const { return neededFirst + inMethods + unused; }
    double pctNeededFirst() const;
    double pctInMethods() const;
    double pctUnused() const;
};

GlobalDataUsage analyzeUsage(const Program &prog,
                             const DataPartition &partition,
                             const std::set<MethodId> &executed);

} // namespace nse

#endif // NSE_RESTRUCTURE_DATA_PARTITION_H
