/**
 * @file
 * chirp-sim: command-line driver for one-off simulations.
 *
 * Runs a synthetic workload or an archived trace file through the
 * Table II machine under any replacement policy and prints the full
 * statistics block.  The scriptable face of the library.
 *
 * Usage:
 *   chirp-sim [options]
 *     --workload CAT:SEED[:SCALE]  synthetic workload (cat: spec, db,
 *                                  crypto, sci, web, bigdata); may be
 *                                  given multiple times for a
 *                                  multi-process run
 *     --trace FILE                 archived .chtr trace instead
 *     --policy NAME                lru|random|srrip|ship|ghrp|chirp|
 *                                  drrip|plru       [default chirp]
 *     --length N                   instructions per workload [500000]
 *     --penalty N                  L2 TLB miss penalty in cycles [150]
 *     --entries N / --assoc N      L2 TLB geometry [1024 / 8]
 *     --quantum N                  context-switch quantum [50000]
 *     --flush-on-switch            flush TLBs at context switches
 *     --no-caches / --no-branch    disable timing components
 *     --help
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/simulator.hh"
#include "trace/trace_file.hh"
#include "trace/trace_store.hh"
#include "trace/synthetic/workload_factory.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace chirp;

namespace
{

/** Parse "cat:seed[:scale]" into a WorkloadConfig. */
WorkloadConfig
parseWorkloadSpec(const std::string &spec, InstCount length)
{
    WorkloadConfig config;
    config.length = length;
    const auto first = spec.find(':');
    const std::string cat = spec.substr(0, first);
    bool found = false;
    const auto ncat = static_cast<unsigned>(Category::NumCategories);
    for (unsigned c = 0; c < ncat; ++c) {
        if (cat == categoryName(static_cast<Category>(c))) {
            config.category = static_cast<Category>(c);
            found = true;
        }
    }
    if (!found)
        chirp_fatal("unknown workload category '", cat, "'");
    if (first == std::string::npos)
        chirp_fatal("workload spec '", spec, "' needs CAT:SEED");
    const std::string rest = spec.substr(first + 1);
    const auto second = rest.find(':');
    config.seed = std::strtoull(rest.substr(0, second).c_str(),
                                nullptr, 10);
    if (second != std::string::npos)
        config.scale = std::strtod(rest.substr(second + 1).c_str(),
                                   nullptr);
    return config;
}

void
printStats(const SimStats &stats, const std::string &policy)
{
    TableFormatter table;
    table.header({"metric", "value"});
    table.row({"policy", policy});
    table.row({"instructions (measured)",
               TableFormatter::num(stats.instructions)});
    table.row({"warmup instructions",
               TableFormatter::num(stats.warmupInstructions)});
    table.row({"cycles", TableFormatter::num(stats.cycles)});
    table.row({"IPC", TableFormatter::num(stats.ipc(), 4)});
    table.row({"L1 i-TLB miss rate",
               TableFormatter::num(
                   stats.l1iTlbAccesses
                       ? 100.0 * stats.l1iTlbMisses / stats.l1iTlbAccesses
                       : 0.0,
                   2) + "%"});
    table.row({"L1 d-TLB miss rate",
               TableFormatter::num(
                   stats.l1dTlbAccesses
                       ? 100.0 * stats.l1dTlbMisses / stats.l1dTlbAccesses
                       : 0.0,
                   2) + "%"});
    table.row({"L2 TLB accesses",
               TableFormatter::num(stats.l2TlbAccesses)});
    table.row({"L2 TLB misses", TableFormatter::num(stats.l2TlbMisses)});
    table.row({"L2 TLB MPKI", TableFormatter::num(stats.mpki(), 4)});
    table.row({"L2 TLB efficiency",
               TableFormatter::num(stats.l2Efficiency, 4)});
    table.row({"branch MPKI", TableFormatter::num(stats.branchMpki(), 3)});
    table.row({"pred-table accesses / L2 access",
               TableFormatter::num(stats.tableAccessRate(), 4)});
    table.row({"walk cycles", TableFormatter::num(stats.walkCycles)});
    table.print();
}

void
usage()
{
    std::puts("usage: chirp-sim [--workload CAT:SEED[:SCALE]]... "
              "[--trace FILE] [--policy NAME]\n"
              "  [--length N] [--penalty N] [--entries N] [--assoc N]\n"
              "  [--quantum N] [--flush-on-switch] [--no-caches] "
              "[--no-branch]");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workload_specs;
    std::string trace_path;
    std::string policy = "chirp";
    InstCount length = 500'000;
    SimConfig config;
    InstCount quantum = 50'000;
    bool flush_on_switch = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                chirp_fatal("option ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            workload_specs.push_back(value());
        else if (arg == "--trace")
            trace_path = value();
        else if (arg == "--policy")
            policy = value();
        else if (arg == "--length")
            length = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--penalty")
            config.pageWalkLatency =
                std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--entries")
            config.tlbs.l2.entries = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--assoc")
            config.tlbs.l2.assoc = static_cast<std::uint32_t>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (arg == "--quantum")
            quantum = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--flush-on-switch")
            flush_on_switch = true;
        else if (arg == "--no-caches")
            config.simulateCaches = false;
        else if (arg == "--no-branch")
            config.simulateBranch = false;
        else if (arg == "--help") {
            usage();
            return 0;
        } else {
            usage();
            chirp_fatal("unknown option '", arg, "'");
        }
    }
    if (workload_specs.empty() && trace_path.empty())
        workload_specs.push_back("spec:1");
    if (!workload_specs.empty() && !trace_path.empty())
        chirp_fatal("--workload and --trace are mutually exclusive");

    Simulator sim(config,
                  makePolicy(policy,
                             config.tlbs.l2.entries /
                                 config.tlbs.l2.assoc,
                             config.tlbs.l2.assoc));

    SimStats stats;
    if (!trace_path.empty()) {
        std::string reason;
        SharedTrace trace = mapTraceFile(trace_path, &reason);
        if (!trace)
            chirp_fatal("cannot read trace file '", trace_path, "': ",
                        reason);
        std::printf("trace: %s (%llu records)\n\n", trace_path.c_str(),
                    static_cast<unsigned long long>(trace->size()));
        MemoryTraceSource source(std::move(trace), trace_path);
        stats = sim.run(source);
    } else {
        std::vector<std::unique_ptr<Program>> programs;
        std::vector<TraceSource *> sources;
        for (const auto &spec : workload_specs) {
            programs.push_back(
                buildWorkload(parseWorkloadSpec(spec, length)));
            sources.push_back(programs.back().get());
            std::printf("workload: %s (%llu data pages)\n",
                        programs.back()->name().c_str(),
                        static_cast<unsigned long long>(
                            programs.back()->dataFootprintPages()));
        }
        std::printf("\n");
        stats = sources.size() == 1
                    ? sim.run(*sources[0])
                    : sim.runInterleaved(sources, quantum,
                                         flush_on_switch);
    }
    printStats(stats, policy);
    return 0;
}
