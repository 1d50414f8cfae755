/**
 * @file
 * Policy explorer: run all six replacement policies over a small
 * suite and print per-category and overall metrics.
 *
 * Environment knobs (shared with the benches):
 *   CHIRP_SUITE_SIZE  workloads in the suite   (default 24 here)
 *   CHIRP_TRACE_LEN   instructions per trace   (default 500000)
 *   CHIRP_SEED        master seed
 */

#include <cstdio>
#include <map>
#include <vector>

#include "sim/runner.hh"
#include "util/table.hh"

using namespace chirp;

int
main()
{
    const SuiteOptions options = suiteOptionsFromEnv(24);
    const auto suite = makeSuite(options);
    std::printf("suite: %zu workloads x %llu instructions\n\n",
                suite.size(),
                static_cast<unsigned long long>(options.traceLength));

    SimConfig config;
    Runner runner(config);

    // One multi-policy call: each workload is simulated once and its
    // L2 TLB stream replayed for every policy.
    std::vector<PolicyFactory> factories;
    std::vector<std::string> tags;
    for (const PolicyKind kind : allPolicyKinds()) {
        factories.push_back(Runner::factoryFor(kind));
        tags.push_back(policyKindName(kind));
    }
    const auto all =
        runner.runSuiteMulti(suite, factories, "policies", {}, tags);
    std::map<PolicyKind, std::vector<WorkloadResult>> results;
    for (std::size_t p = 0; p < all.size(); ++p)
        results[allPolicyKinds()[p]] = all[p];
    const auto &lru = results[PolicyKind::Lru];

    // Overall comparison (the Fig 7/8/11 headline metrics).
    TableFormatter table;
    table.header({"policy", "avg MPKI", "MPKI red. %", "speedup %",
                  "table acc/TLB acc", "efficiency gain %"});
    for (const PolicyKind kind : allPolicyKinds()) {
        const auto &res = results[kind];
        table.row({policyKindName(kind),
                   TableFormatter::num(averageMpki(res), 3),
                   TableFormatter::num(mpkiReductionPct(lru, res), 2),
                   TableFormatter::num(
                       speedupPct(lru, res, config.pageWalkLatency), 2),
                   TableFormatter::num(meanTableAccessRate(res), 3),
                   TableFormatter::num(efficiencyGainPct(lru, res), 2)});
    }
    table.print();

    // Per-category MPKI breakdown.
    std::printf("\nper-category average L2 TLB MPKI:\n");
    TableFormatter cat_table;
    std::vector<std::string> header = {"category"};
    for (const PolicyKind kind : allPolicyKinds())
        header.push_back(policyKindName(kind));
    header.push_back("ipc(lru)");
    cat_table.header(header);
    for (unsigned c = 0; c < static_cast<unsigned>(Category::NumCategories);
         ++c) {
        const auto category = static_cast<Category>(c);
        std::vector<std::string> row = {categoryName(category)};
        double lru_ipc = 0.0;
        int n = 0;
        for (const PolicyKind kind : allPolicyKinds()) {
            double sum = 0.0;
            int count = 0;
            for (const auto &r : results[kind]) {
                if (r.workload.category != category)
                    continue;
                sum += r.stats.mpki();
                ++count;
                if (kind == PolicyKind::Lru) {
                    lru_ipc += r.stats.ipc();
                    ++n;
                }
            }
            row.push_back(TableFormatter::num(count ? sum / count : 0.0,
                                              3));
        }
        row.push_back(TableFormatter::num(n ? lru_ipc / n : 0.0, 3));
        cat_table.row(row);
    }
    cat_table.print();
    return 0;
}
