#include "restructure/data_partition.h"

#include "classfile/writer.h"
#include "support/error.h"
#include "vm/verifier.h"

namespace nse
{

uint64_t
DataPartition::neededFirstBytes() const
{
    uint64_t sum = 0;
    for (const auto &c : classes)
        sum += c.neededFirstBytes;
    return sum;
}

DataPartition
partitionGlobalData(const Program &prog, const FirstUseOrder &order)
{
    DataPartition out;
    out.classes.resize(prog.classCount());
    auto per_class = order.perClassOrder(prog);

    for (uint16_t c = 0; c < prog.classCount(); ++c) {
        const ClassFile &cf = prog.classAt(c);
        const ConstantPool &cp = cf.cpool;
        ClassPartition &part = out.classes[c];
        part.assignment.resize(cp.size());
        part.gmdBytes.assign(cf.methods.size(), 0);
        for (uint16_t i = 1; i < cp.size(); ++i)
            part.assignment[i].bytes =
                ConstantPool::entryByteSize(cp.at(i));

        // Structural prefix: everything the loader touches before the
        // first method header.
        std::set<uint16_t> structural;
        cpClosure(cp, cf.thisClassIdx, structural);
        cpClosure(cp, cf.superClassIdx, structural);
        for (uint16_t idx : cf.interfaceIdxs)
            cpClosure(cp, idx, structural);
        for (const FieldInfo &f : cf.fields) {
            cpClosure(cp, f.nameIdx, structural);
            cpClosure(cp, f.descIdx, structural);
        }
        for (const AttributeInfo &a : cf.attributes)
            cpClosure(cp, a.nameIdx, structural);
        for (uint16_t idx : structural)
            part.assignment[idx].owner = -1;

        // Claim remaining entries per method, earliest user first.
        NSE_ASSERT(per_class[c].size() == cf.methods.size(),
                   "ordering does not cover class ", cf.name());
        for (uint16_t midx : per_class[c]) {
            for (uint16_t idx : methodCpDependencies(cf, cf.methods[midx])) {
                if (part.assignment[idx].owner == -2) {
                    part.assignment[idx].owner = midx;
                    part.gmdBytes[midx] += part.assignment[idx].bytes;
                }
            }
        }

        // Byte accounting: the needed-first chunk also carries every
        // non-cpool global section (header, interfaces, field table,
        // attributes, the cp/method counts).
        ClassFileLayout layout = layoutOf(cf);
        uint64_t entry_bytes = 0;
        for (uint16_t i = 1; i < cp.size(); ++i)
            entry_bytes += part.assignment[i].bytes;
        uint64_t non_entry_global = layout.globalDataEnd - entry_bytes;

        uint64_t structural_bytes = 0;
        for (uint16_t i = 1; i < cp.size(); ++i) {
            if (part.assignment[i].owner == -1)
                structural_bytes += part.assignment[i].bytes;
            else if (part.assignment[i].owner == -2)
                part.unusedBytes += part.assignment[i].bytes;
        }
        part.neededFirstBytes = non_entry_global + structural_bytes;

        NSE_ASSERT(part.total() == layout.globalDataEnd,
                   "partition does not conserve global bytes in ",
                   cf.name());
    }
    return out;
}

double
GlobalDataUsage::pctNeededFirst() const
{
    return total() ? 100.0 * static_cast<double>(neededFirst) /
                         static_cast<double>(total())
                   : 0.0;
}

double
GlobalDataUsage::pctInMethods() const
{
    return total() ? 100.0 * static_cast<double>(inMethods) /
                         static_cast<double>(total())
                   : 0.0;
}

double
GlobalDataUsage::pctUnused() const
{
    return total() ? 100.0 * static_cast<double>(unused) /
                         static_cast<double>(total())
                   : 0.0;
}

GlobalDataUsage
analyzeUsage(const Program &prog, const DataPartition &partition,
             const std::set<MethodId> &executed)
{
    GlobalDataUsage usage;
    for (uint16_t c = 0; c < prog.classCount(); ++c) {
        const ClassPartition &part = partition.classes[c];
        usage.neededFirst += part.neededFirstBytes;
        usage.unused += part.unusedBytes;
        for (uint16_t m = 0; m < part.gmdBytes.size(); ++m) {
            if (executed.count(MethodId{c, m}))
                usage.inMethods += part.gmdBytes[m];
            else
                usage.unused += part.gmdBytes[m];
        }
    }
    return usage;
}

} // namespace nse
