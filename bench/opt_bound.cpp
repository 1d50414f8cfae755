/**
 * @file
 * Extra bench: Bélády (OPT) bound for L2 TLB misses, against LRU and
 * CHiRP.  Not a paper figure — it contextualizes how much headroom
 * any replacement policy has on this suite (the paper cites
 * Bélády [68] as the unreachable reference point).
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <future>
#include <vector>

#include "bench/harness.hh"
#include "sim/opt_bound.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace chirp;
using namespace chirp::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = makeContext(argc, argv, 24, /*mpki_only=*/true);
    printBanner("OPT (Belady) bound vs LRU and CHiRP", ctx);

    // Each workload's trace is materialized once and serves both
    // passes.  The suite runs in windows of max(--jobs, --workers)
    // workloads, so every forked worker gets a shard: the window's
    // Bélády jobs, one thread each, take their traces from the
    // runner's store and leave them resident, and the window's
    // runSuiteMulti call then replays them (forked --workers inherit
    // them) and drops them.  At most one window of traces is held at
    // a time.
    const Runner runner = ctx.runner();
    TraceStore &store = runner.traceStore();
    const std::size_t jobs =
        ctx.jobs ? ctx.jobs : ThreadPool::defaultConcurrency();
    const std::size_t window = std::max<std::size_t>(jobs, ctx.workers);
    std::vector<OptBoundResult> opt;
    std::vector<WorkloadResult> lru;
    std::vector<WorkloadResult> chirp_results;
    for (std::size_t begin = 0; begin < ctx.suite.size();
         begin += window) {
        const std::vector<WorkloadConfig> part(
            ctx.suite.begin() + begin,
            ctx.suite.begin() +
                std::min(begin + window, ctx.suite.size()));
        {
            // Scoped: the pool's threads must be gone before
            // runSuiteMulti forks --workers.
            ThreadPool pool(static_cast<unsigned>(part.size()));
            std::vector<std::future<OptBoundResult>> opts;
            for (const WorkloadConfig &workload : part) {
                opts.push_back(pool.submit([&store, &workload] {
                    try {
                        MemoryTraceSource source(store.get(workload),
                                                 workload.name);
                        return computeOptBound(source);
                    } catch (const std::exception &err) {
                        // The runner's jobs fail on the same trace
                        // and mark the run incomplete; the row
                        // reads 0 like their zeroed stats.
                        chirp_warn("OPT bound of '", workload.name,
                                   "' failed: ", err.what());
                        return OptBoundResult{};
                    }
                }));
            }
            for (auto &result : opts)
                opt.push_back(result.get());
        }
        auto all = runner.runSuiteMulti(
            part,
            {Runner::factoryFor(PolicyKind::Lru),
             Runner::factoryFor(PolicyKind::Chirp)},
            "policies", {}, {"lru", "chirp"});
        lru.insert(lru.end(), all[0].begin(), all[0].end());
        chirp_results.insert(chirp_results.end(), all[1].begin(),
                             all[1].end());
        // The runner drops what it replayed; journaled or lost-worker
        // workloads may still be resident.
        for (const WorkloadConfig &workload : part)
            store.drop(workload);
    }

    double lru_sum = 0.0;
    double chirp_sum = 0.0;
    double opt_sum = 0.0;
    CsvWriter csv("opt_bound.csv");
    csv.row({"workload", "lru_mpki", "chirp_mpki", "opt_mpki"});
    for (std::size_t i = 0; i < ctx.suite.size(); ++i) {
        lru_sum += lru[i].stats.mpki();
        chirp_sum += chirp_results[i].stats.mpki();
        opt_sum += opt[i].mpki();
        csv.row({ctx.suite[i].name,
                 TableFormatter::num(lru[i].stats.mpki(), 4),
                 TableFormatter::num(chirp_results[i].stats.mpki(), 4),
                 TableFormatter::num(opt[i].mpki(), 4)});
    }

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
