/**
 * @file
 * Fig 11 reproduction: density of (prediction-table accesses / L2
 * TLB accesses) across the suite for SHiP, GHRP and CHiRP.
 *
 * Paper: SHiP and GHRP exceed 100% with high variance (a read for
 * the prediction plus a write for training on every access); CHiRP
 * averages 10.14% with low variance.
 */

#include <cstdio>
#include <iterator>

#include "bench/harness.hh"
#include "util/stats.hh"

using namespace chirp;
using namespace chirp::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = makeContext(argc, argv, 60, /*mpki_only=*/true);
    printBanner("Fig 11: prediction-table access rate density", ctx);

    const Runner runner = ctx.runner();
    const struct
    {
        PolicyKind kind;
        double paper_mean;
    } policies[] = {
        {PolicyKind::Ship, 1.0},  // paper: "over 100% in many cases"
        {PolicyKind::Ghrp, 1.0},
        {PolicyKind::Chirp, 0.1014},
    };

    CsvWriter csv("fig11_table_access_rate.csv");
    csv.row({"policy", "bin_center", "density"});

    TableFormatter summary;
    summary.header({"policy", "mean rate (measured)", "stddev",
                    "min", "max", "paper mean"});

    std::vector<PolicyFactory> factories;
    std::vector<std::string> tags;
    for (const auto &entry : policies) {
        factories.push_back(Runner::factoryFor(entry.kind));
        tags.push_back(policyKindName(entry.kind));
    }
    const auto all =
        runner.runSuiteMulti(ctx.suite, factories, "policies", {}, tags);

    for (std::size_t p = 0; p < std::size(policies); ++p) {
        const auto &entry = policies[p];
        const auto &results = all[p];
        RunningStat stat;
        Histogram density(0.0, 8.0, 32);
        for (const auto &r : results) {
            stat.push(r.stats.tableAccessRate());
            density.push(r.stats.tableAccessRate());
        }
        for (std::size_t bin = 0; bin < density.bins(); ++bin) {
            if (density.binCount(bin) == 0)
                continue;
            csv.row({policyKindName(entry.kind),
                     TableFormatter::num(density.binCenter(bin), 3),
                     TableFormatter::num(density.density(bin), 4)});
        }
        summary.row({policyKindName(entry.kind),
                     TableFormatter::num(stat.mean(), 3),
                     TableFormatter::num(stat.stddev(), 3),
                     TableFormatter::num(stat.min(), 3),
                     TableFormatter::num(stat.max(), 3),
                     TableFormatter::num(entry.paper_mean, 3)});
    }
    summary.print();
    std::printf("\n(rates are table accesses per L2 TLB access; >1 "
                "means multiple reads+writes per access)\n");
    std::printf("CSV written to fig11_table_access_rate.csv\n");
    return finish(ctx);
}
