/**
 * @file
 * Trace tools: generate a synthetic workload, archive it to the
 * binary trace format, inspect the file, and re-simulate from it —
 * the full trace I/O API in one walkthrough.
 *
 * Usage: trace_tools [output.chtr]
 */

#include <cstdio>
#include <map>

#include "core/policy_factory.hh"
#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/trace_store.hh"
#include "trace/synthetic/workload_factory.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace chirp;

int
main(int argc, char **argv)
{
    const std::string path = argc > 1 ? argv[1] : "example_trace.chtr";

    // 1. Generate a database-style workload and archive it.
    WorkloadConfig workload;
    workload.category = Category::Database;
    workload.seed = 2024;
    workload.length = 200'000;
    {
        const auto program = buildWorkload(workload);
        std::printf("generating %llu instructions of '%s' "
                    "(%llu data pages, %llu code pages)...\n",
                    static_cast<unsigned long long>(program->length()),
                    program->name().c_str(),
                    static_cast<unsigned long long>(
                        program->dataFootprintPages()),
                    static_cast<unsigned long long>(
                        program->layout().codePages()));
        ColumnarTrace trace;
        TraceRecord rec;
        while (program->next(rec))
            trace.append(rec);
        if (!writeTraceFile(path, trace))
            chirp_fatal("cannot write trace file '", path, "'");
        std::printf("wrote %zu records to %s\n\n", trace.size(),
                    path.c_str());
    }

    // Every read of the file goes through one zero-copy mapping,
    // validated (header, size, per-column checksums) before use.
    std::string reason;
    const SharedTrace trace = mapTraceFile(path, &reason);
    if (!trace)
        chirp_fatal("cannot read trace file '", path, "': ", reason);

    // 2. Inspect: instruction-class histogram and footprint.
    {
        MemoryTraceSource source(trace, path);
        std::map<InstClass, std::uint64_t> classes;
        std::map<Addr, std::uint64_t> pages;
        TraceRecord rec;
        while (source.next(rec)) {
            ++classes[rec.cls];
            if (isMemory(rec.cls))
                ++pages[pageNumber(rec.effAddr)];
        }
        TableFormatter table;
        table.header({"instruction class", "count", "share %"});
        for (const auto &[cls, count] : classes) {
            table.row({instClassName(cls), TableFormatter::num(count),
                       TableFormatter::num(100.0 * count /
                                               trace->size(),
                                           1)});
        }
        table.print();
        std::printf("\ndistinct data pages touched: %zu\n\n",
                    pages.size());
    }

    // 3. Re-simulate from the file (identical to simulating the
    //    generator directly; the integration tests assert this).
    {
        SimConfig config;
        Simulator sim(config,
                      makePolicy(PolicyKind::Chirp,
                                 config.tlbs.l2.entries /
                                     config.tlbs.l2.assoc,
                                 config.tlbs.l2.assoc));
        MemoryTraceSource source(trace, path);
        const SimStats stats = sim.run(source);
        std::printf("replayed under CHiRP: MPKI %.3f, IPC %.3f, "
                    "table access rate %.3f\n",
                    stats.mpki(), stats.ipc(), stats.tableAccessRate());
    }
    std::remove(path.c_str());
    return 0;
}
