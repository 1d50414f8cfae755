/**
 * @file
 * Extra bench: Bélády (OPT) bound for L2 TLB misses, against LRU and
 * CHiRP.  Not a paper figure — it contextualizes how much headroom
 * any replacement policy has on this suite (the paper cites
 * Bélády [68] as the unreachable reference point).
 */

#include <cstdio>

#include "bench/harness.hh"
#include "sim/opt_bound.hh"

using namespace chirp;
using namespace chirp::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = makeContext(argc, argv, 24, /*mpki_only=*/true);
    printBanner("OPT (Belady) bound vs LRU and CHiRP", ctx);

    const Runner runner = ctx.runner();
    const auto all = runner.runSuiteMulti(
        ctx.suite,
        {Runner::factoryFor(PolicyKind::Lru),
         Runner::factoryFor(PolicyKind::Chirp)},
        "policies", {}, {"lru", "chirp"});
    const auto &lru = all[0];
    const auto &chirp_results = all[1];

    double lru_sum = 0.0;
    double chirp_sum = 0.0;
    double opt_sum = 0.0;
    CsvWriter csv("opt_bound.csv");
    csv.row({"workload", "lru_mpki", "chirp_mpki", "opt_mpki"});
    for (std::size_t i = 0; i < ctx.suite.size(); ++i) {
        const auto program = buildWorkload(ctx.suite[i]);
        const OptBoundResult opt = computeOptBound(*program);
        lru_sum += lru[i].stats.mpki();
        chirp_sum += chirp_results[i].stats.mpki();
        opt_sum += opt.mpki();
        csv.row({ctx.suite[i].name,
                 TableFormatter::num(lru[i].stats.mpki(), 4),
                 TableFormatter::num(chirp_results[i].stats.mpki(), 4),
                 TableFormatter::num(opt.mpki(), 4)});
        std::fprintf(stderr, "  [opt] %zu/%zu\r", i + 1,
                     ctx.suite.size());
    }
    std::fprintf(stderr, "\n");

    const double n = static_cast<double>(ctx.suite.size());
    TableFormatter table;
    table.header({"policy", "avg MPKI", "reduction % vs LRU"});
    table.row({"lru", TableFormatter::num(lru_sum / n, 3), "0.00"});
    table.row({"chirp", TableFormatter::num(chirp_sum / n, 3),
               TableFormatter::num((1 - chirp_sum / lru_sum) * 100, 2)});
    table.row({"opt (bound)", TableFormatter::num(opt_sum / n, 3),
               TableFormatter::num((1 - opt_sum / lru_sum) * 100, 2)});
    table.print();
    std::printf("\nCHiRP captures %.1f%% of the OPT headroom.\n",
                100.0 * (lru_sum - chirp_sum) / (lru_sum - opt_sum));
    std::printf("CSV written to opt_bound.csv\n");
    return finish(ctx);
}
