/**
 * @file
 * nse_cli — the whole library behind one command-line tool.
 *
 * Subcommands:
 *   stats <workload>                 static + dynamic program statistics
 *   order <workload> [scg|rta|train|test] print the first-use ordering
 *   simulate <workload> [options]    run one transfer configuration
 *   split <workload> <maxBytes>      procedure-split, then re-simulate
 *   save <workload> <dir>            write a loadable program archive
 *   disasm <workload> <Class> [m]    disassemble a class or one method
 *
 * simulate options:
 *   --link t1|modem       (default modem)
 *   --mode strict|parallel|interleaved   (default parallel)
 *   --order scg|rta|train|test           (default test)
 *   --limit N             concurrent transfers, 0 = unlimited (default 4)
 *   --partition           enable global-data partitioning
 *
 * A malformed command line (unknown workload, option or value, a count
 * that is not a plain decimal in range) prints the reason and the
 * usage and exits 2.
 *
 * Examples:
 *   nse_cli stats Jess
 *   nse_cli simulate TestDes --link t1 --mode interleaved --partition
 *   nse_cli split TestDes 2048
 */

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bytecode/disassembler.h"
#include "profile/first_use_profile.h"
#include "program/archive.h"
#include "report/table.h"
#include "restructure/split.h"
#include "sim/replay.h"
#include "workloads/workload.h"

using namespace nse;

namespace
{

int
usage()
{
    std::cerr
        << "usage: nse_cli <stats|order|simulate|split> <workload> "
           "[options]\n"
           "workloads: BIT Hanoi JavaCup Jess JHLZip TestDes\n"
           "see the file header of examples/nse_cli.cpp for options\n";
    return 2;
}

/** A malformed command line; main prints it with the usage. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The named workload; an unknown name is a usage error. */
Workload
workloadNamed(const char *name)
{
    try {
        return makeWorkload(name);
    } catch (const FatalError &e) {
        throw UsageError(e.what());
    }
}

/** `s` as a plain decimal count in [0, max]: a sign, blank or
 *  trailing text, or a value past `max` is a usage error. */
uint64_t
parseCount(const std::string &what, const std::string &s, uint64_t max)
{
    uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max) {
        throw UsageError(what + " needs a count in [0, " +
                         std::to_string(max) + "], got '" + s + "'");
    }
    return v;
}

OrderingSource
parseOrder(const std::string &s)
{
    if (s == "scg")
        return OrderingSource::Static;
    if (s == "rta")
        return OrderingSource::RtaStatic;
    if (s == "train")
        return OrderingSource::Train;
    if (s == "test")
        return OrderingSource::Test;
    throw UsageError("unknown ordering: " + s);
}

LinkModel
parseLink(const std::string &s)
{
    if (s == "t1")
        return kT1Link;
    if (s == "modem")
        return kModemLink;
    throw UsageError("unknown link: " + s);
}

SimConfig::Mode
parseMode(const std::string &s)
{
    if (s == "strict")
        return SimConfig::Mode::Strict;
    if (s == "parallel")
        return SimConfig::Mode::Parallel;
    if (s == "interleaved")
        return SimConfig::Mode::Interleaved;
    throw UsageError("unknown mode: " + s);
}

int
cmdStats(Workload &w)
{
    ProgramStatics st = collectStatics(w.program);
    FirstUseProfile prof =
        profileRun(w.program, w.natives, w.testInput);
    Table t({"metric", "value"});
    t.addRow({"class files", std::to_string(st.classFiles)});
    t.addRow({"size KB", fmtKb(st.totalBytes, 1)});
    t.addRow({"methods", std::to_string(st.methods)});
    t.addRow({"static instrs", std::to_string(st.staticInstrs)});
    t.addRow({"dynamic instrs (test)",
              std::to_string(prof.result.bytecodes)});
    t.addRow({"CPI", fmtF(prof.result.cpi(), 1)});
    t.addRow({"% instrs executed",
              fmtF(100.0 * prof.executedInstrFraction(w.program), 1)});
    t.addRow({"methods executed",
              std::to_string(prof.order.size())});
    std::cout << t.render();
    return 0;
}

int
cmdOrder(Workload &w, const std::string &src)
{
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    const FirstUseOrder &order = ctx.ordering(parseOrder(src));
    for (size_t i = 0; i < order.order.size(); ++i) {
        std::cout << (i < order.usedCount ? "  " : "~ ")
                  << w.program.methodLabel(order.order[i]) << "\n";
    }
    std::cout << "(" << order.usedCount << " predicted first uses; ~ "
              << "marks appended never-used placements)\n";
    return 0;
}

int
cmdSimulate(Workload &w, int argc, char **argv, int first)
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    cfg.parallelLimit = 4;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw UsageError("missing value for " + a);
            return argv[++i];
        };
        if (a == "--link") {
            cfg.link = parseLink(next());
        } else if (a == "--mode") {
            cfg.mode = parseMode(next());
        } else if (a == "--order") {
            cfg.ordering = parseOrder(next());
        } else if (a == "--limit") {
            cfg.parallelLimit =
                static_cast<int>(parseCount(a, next(), INT_MAX));
            if (cfg.parallelLimit == 0)
                cfg.parallelLimit = -1;
        } else if (a == "--partition") {
            cfg.dataPartition = true;
        } else {
            throw UsageError("unknown option: " + a);
        }
    }

    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = cfg.link;
    SimResult base = runReplay(ctx, strict);
    SimResult r = runReplay(ctx, cfg);

    Table t({"metric", "value"});
    t.addRow({"invocation latency Mcycles",
              fmtMillions(r.invocationLatency, 1)});
    t.addRow({"total Mcycles", fmtMillions(r.totalCycles, 1)});
    t.addRow({"exec Mcycles", fmtMillions(r.execCycles, 1)});
    t.addRow({"stall Mcycles", fmtMillions(r.stallCycles, 1)});
    t.addRow({"demand fetches", std::to_string(r.mispredictions)});
    t.addRow({"normalized vs strict %",
              fmtF(normalizedPct(r, base), 1)});
    std::cout << t.render();
    return 0;
}

int
cmdSplit(Workload &w, size_t max_bytes)
{
    SimContext before(w.program, w.natives, w.trainInput, w.testInput);
    uint64_t lat_before =
        nonStrictInvocationLatency(before, kModemLink, false);

    SplitStats stats = splitLargeMethods(w.program, max_bytes);
    SimContext after(w.program, w.natives, w.trainInput, w.testInput);
    uint64_t lat_after =
        nonStrictInvocationLatency(after, kModemLink, false);

    std::cout << "split " << stats.methodsSplit << " methods into "
              << stats.tailsCreated << " tails (threshold " << max_bytes
              << " bytes)\n"
              << "non-strict invocation latency (modem): "
              << fmtMillions(lat_before, 1) << "M -> "
              << fmtMillions(lat_after, 1) << "M cycles\n";
    return 0;
}

int
cmdSave(Workload &w, const std::string &dir)
{
    saveProgram(w.program, dir);
    std::cout << "wrote " << w.program.classCount()
              << " class files (+manifest) to " << dir << "\n";
    return 0;
}

int
cmdDisasm(Workload &w, const std::string &cls, const char *method)
{
    const ClassFile &cf = w.program.classByName(cls);
    for (const MethodInfo &m : cf.methods) {
        if (method && cf.methodName(m) != method)
            continue;
        std::cout << cf.name() << "." << cf.methodName(m)
                  << cf.methodDescriptor(m)
                  << (m.isNative() ? "  [native]" : "") << "\n";
        if (!m.isNative())
            std::cout << disassembleCode(m.code);
        std::cout << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];
    try {
        Workload w = workloadNamed(argv[2]);
        if (cmd == "stats")
            return cmdStats(w);
        if (cmd == "save")
            return argc > 3 ? cmdSave(w, argv[3]) : usage();
        if (cmd == "disasm")
            return argc > 3 ? cmdDisasm(w, argv[3],
                                        argc > 4 ? argv[4] : nullptr)
                            : usage();
        if (cmd == "order")
            return cmdOrder(w, argc > 3 ? argv[3] : "test");
        if (cmd == "simulate")
            return cmdSimulate(w, argc, argv, 3);
        if (cmd == "split")
            return cmdSplit(w, argc > 3 ? parseCount("split", argv[3],
                                                     SIZE_MAX)
                                        : 2048);
    } catch (const UsageError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage();
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
