/**
 * @file
 * Fig 9 reproduction: CHiRP MPKI improvement over LRU as the
 * prediction-table budget sweeps 128B..8KB (2-bit counters, so
 * 512..32768 entries).
 *
 * Paper: ~7% at 128B, ~20% at 256B, ~22% at 512B, ~28% at 1KB/2KB,
 * gently rising beyond.  The paper's headline configuration is the
 * 1KB table.
 */

#include <cstdio>
#include <iterator>

#include "bench/harness.hh"

using namespace chirp;
using namespace chirp::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = makeContext(argc, argv, 48, /*mpki_only=*/true);
    printBanner("Fig 9: CHiRP MPKI improvement vs prediction-table size",
                ctx);

    const struct
    {
        std::size_t bytes;
        double paper;
    } points[] = {
        {128, 7.0},  {256, 20.0},  {512, 22.0},  {1024, 28.0},
        {2048, 28.0}, {4096, 29.0}, {8192, 30.0},
    };

    // One multi-policy call: LRU (factory 0) plus a CHiRP variant per
    // table size, all replaying each workload's one recorded stream.
    std::vector<PolicyFactory> factories = {
        Runner::factoryFor(PolicyKind::Lru)};
    std::vector<std::string> tags = {"lru"};
    std::vector<std::size_t> entries;
    for (const auto &point : points) {
        ChirpConfig config;
        config.tableEntries = point.bytes * 8 / config.counterBits;
        entries.push_back(config.tableEntries);
        factories.push_back(
            [config](std::uint32_t sets, std::uint32_t assoc) {
                return makeChirp(sets, assoc, config);
            });
        tags.push_back(std::to_string(point.bytes) + "B");
    }
    const Runner runner = ctx.runner();
    const auto all =
        runner.runSuiteMulti(ctx.suite, factories, "table size", {}, tags);
    const auto &lru = all[0];

    TableFormatter table;
    table.header({"table size", "counters", "MPKI improvement % "
                  "(measured)", "paper %"});
    CsvWriter csv("fig09_table_size.csv");
    csv.row({"table_bytes", "counters", "improvement_pct_measured",
             "improvement_pct_paper"});

    for (std::size_t i = 0; i < std::size(points); ++i) {
        const auto &point = points[i];
        const double improvement = mpkiReductionPct(lru, all[i + 1]);
        const std::string label =
            point.bytes >= 1024
                ? std::to_string(point.bytes / 1024) + "KB"
                : std::to_string(point.bytes) + "B";
        table.row({label,
                   TableFormatter::num(std::uint64_t{entries[i]}),
                   TableFormatter::num(improvement, 2),
                   TableFormatter::num(point.paper, 1)});
        csv.row({std::to_string(point.bytes),
                 std::to_string(entries[i]),
                 TableFormatter::num(improvement, 3),
                 TableFormatter::num(point.paper, 1)});
    }
    table.print();
    std::printf("\nCSV written to fig09_table_size.csv\n");
    return finish(ctx);
}
