/**
 * @file
 * Reproduces paper Table 8: breakdown of global data (constant pool /
 * fields / attributes / interfaces as % of global data) and of the
 * constant pool itself by entry kind (Utf8, Integer, Float, Long,
 * Double, String, Class, FieldRef, MethodRef, NameAndType,
 * InterfaceMethodRef as % of the constant pool).
 */

#include "bench/bench_env.h"
#include "classfile/writer.h"

namespace nse
{

BenchJson
runTable8Globaldata(BenchEnv &env, std::ostream &os)
{
    benchHeader(os, "Table 8",
                "Breakdown of global data and constant pool (percent "
                "of containing structure)");

    Table global({"Program", "CPool", "Field", "Attrib", "Intfc"});
    Table cpool({"Program", "Utf8", "Ints", "Float", "Long", "Double",
                 "String", "Class", "FRef", "MRef", "NandT", "IMRef"});

    for (const BenchWorkload &e : env.workloads()) {
        GlobalDataBreakdown total;
        for (uint16_t c = 0; c < e.workload.program.classCount(); ++c) {
            ClassFileLayout l = layoutOf(e.workload.program.classAt(c));
            total.header += l.global.header;
            total.interfaces += l.global.interfaces;
            total.cpool += l.global.cpool;
            total.fields += l.global.fields;
            total.attributes += l.global.attributes;
            for (size_t k = 0; k < total.cpoolByTag.size(); ++k)
                total.cpoolByTag[k] += l.global.cpoolByTag[k];
        }

        auto pct_of = [](size_t part, size_t whole) {
            return whole ? fmtF(100.0 * static_cast<double>(part) /
                                    static_cast<double>(whole),
                                1)
                         : std::string("0.0");
        };
        size_t g = total.total();
        global.addRow({e.workload.name, pct_of(total.cpool, g),
                       pct_of(total.fields, g),
                       pct_of(total.attributes, g),
                       pct_of(total.interfaces, g)});

        auto tag_pct = [&](CpTag tag) {
            return pct_of(total.cpoolByTag[static_cast<size_t>(tag)],
                          total.cpool);
        };
        cpool.addRow({e.workload.name, tag_pct(CpTag::Utf8),
                      tag_pct(CpTag::Integer), tag_pct(CpTag::Float),
                      tag_pct(CpTag::Long), tag_pct(CpTag::Double),
                      tag_pct(CpTag::String), tag_pct(CpTag::Class),
                      tag_pct(CpTag::FieldRef), tag_pct(CpTag::MethodRef),
                      tag_pct(CpTag::NameAndType),
                      tag_pct(CpTag::InterfaceMethodRef)});
    }

    os << "--- Percent of global data ---\n" << global.render()
       << "\n--- Percent of constant pool ---\n" << cpool.render();

    BenchJson json("table8_globaldata");
    json.addTable("Percent of global data", global);
    json.addTable("Percent of constant pool", cpool);
    return json;
}

} // namespace nse
