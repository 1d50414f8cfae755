/**
 * @file
 * Extra bench: the paper's policy set plus the library's extension
 * policies (DRRIP set dueling, tree-PLRU) on one suite.
 *
 * Answers two questions the paper leaves open: does a stronger RRIP
 * (dynamic insertion) close the gap to CHiRP, and how much of the
 * LRU baseline's behaviour survives in the pseudo-LRU hardware
 * actually shipped?
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace chirp;
using namespace chirp::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = makeContext(argc, argv, 48, /*mpki_only=*/true);
    printBanner("Extension study: DRRIP and tree-PLRU vs the paper's "
                "policies", ctx);

    // One multi-policy call with LRU as factory 0: every policy
    // replays each workload's one recorded L2 stream.
    const std::vector<std::string> names = {"lru",  "plru", "srrip",
                                            "drrip", "ship", "ghrp",
                                            "chirp"};
    std::vector<PolicyFactory> factories;
    for (const std::string &name : names) {
        factories.push_back(
            [name](std::uint32_t sets, std::uint32_t assoc) {
                return makePolicy(name, sets, assoc);
            });
    }
    const Runner runner = ctx.runner();
    const auto all =
        runner.runSuiteMulti(ctx.suite, factories, "policies", {}, names);
    const auto &lru = all[0];

    TableFormatter table;
    table.header({"policy", "avg MPKI", "MPKI reduction %"});
    CsvWriter csv("extra_policies.csv");
    csv.row({"policy", "avg_mpki", "reduction_pct"});
    table.row({"lru", TableFormatter::num(averageMpki(lru), 3), "0.00"});
    csv.row({"lru", TableFormatter::num(averageMpki(lru), 4), "0"});

    for (std::size_t p = 1; p < names.size(); ++p) {
        const std::string &name = names[p];
        const auto &results = all[p];
        table.row({name, TableFormatter::num(averageMpki(results), 3),
                   TableFormatter::num(mpkiReductionPct(lru, results),
                                       2)});
        csv.row({name, TableFormatter::num(averageMpki(results), 4),
                 TableFormatter::num(mpkiReductionPct(lru, results), 3)});
    }
    table.print();
    std::printf("\nCSV written to extra_policies.csv\n");
    return finish(ctx);
}
