/**
 * @file
 * Implementing a new replacement policy against the public API — the
 * downstream-user story.
 *
 * The example policy, SLRU ("segmented LRU"), protects entries that
 * have hit at least once: victims are preferred among never-hit
 * entries (probationary segment) before falling back to true LRU.
 * It is a reasonable folk policy to race against CHiRP: it shares
 * the "new entries are suspect" intuition without any prediction
 * tables.  The race result is discussed in EXPERIMENTS.md.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/policy_factory.hh"
#include "sim/runner.hh"
#include "util/table.hh"

using namespace chirp;

namespace
{

/** Segmented-LRU: never-hit entries are evicted first. */
class SlruPolicy : public ReplacementPolicy
{
  public:
    SlruPolicy(std::uint32_t num_sets, std::uint32_t assoc)
        : ReplacementPolicy("slru", num_sets, assoc),
          stack_(num_sets, assoc),
          protected_(static_cast<std::size_t>(num_sets) * assoc, false)
    {
    }

    void
    reset() override
    {
        stack_.reset();
        std::fill(protected_.begin(), protected_.end(), false);
        resetTableCounters();
    }

    void
    onHit(std::uint32_t set, std::uint32_t way,
          const AccessInfo &) override
    {
        stack_.touch(set, way);
        protected_[idx(set, way)] = true;
    }

    std::uint32_t
    selectVictim(std::uint32_t set, const AccessInfo &) override
    {
        // Least-recent probationary entry first; else true LRU.
        std::uint32_t victim = ~0u;
        std::uint32_t deepest = 0;
        for (std::uint32_t way = 0; way < assoc(); ++way) {
            if (protected_[idx(set, way)])
                continue;
            const std::uint32_t pos = stack_.position(set, way);
            if (victim == ~0u || pos > deepest) {
                victim = way;
                deepest = pos;
            }
        }
        return victim != ~0u ? victim : stack_.lruWay(set);
    }

    void
    onFill(std::uint32_t set, std::uint32_t way,
           const AccessInfo &) override
    {
        stack_.touch(set, way);
        protected_[idx(set, way)] = false;
    }

    void
    onInvalidate(std::uint32_t set, std::uint32_t way) override
    {
        stack_.demote(set, way);
        protected_[idx(set, way)] = false;
    }

    std::uint64_t
    storageBits() const override
    {
        return stack_.storageBits() +
               static_cast<std::uint64_t>(numSets()) * assoc();
    }

  private:
    LruStack stack_;
    std::vector<bool> protected_;
};

} // namespace

int
main()
{
    // Race SLRU against the paper's policies on a small suite.
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    Runner runner(config);
    SuiteOptions options = suiteOptionsFromEnv(12);
    options.traceLength = std::min<InstCount>(options.traceLength,
                                              400'000);
    const auto suite = makeSuite(options);

    // A custom policy is just another factory: it replays each
    // workload's recorded L2 TLB stream alongside the built-in ones.
    const auto all = runner.runSuiteMulti(
        suite,
        {Runner::factoryFor(PolicyKind::Lru),
         [](std::uint32_t sets, std::uint32_t assoc) {
             return std::make_unique<SlruPolicy>(sets, assoc);
         },
         Runner::factoryFor(PolicyKind::Chirp)},
        "policies", {}, {"lru", "slru", "chirp"});
    const auto &lru = all[0];
    const auto &slru = all[1];
    const auto &chirp_results = all[2];

    TableFormatter table;
    table.header({"policy", "avg MPKI", "MPKI reduction %",
                  "storage (KB)"});
    table.row({"lru", TableFormatter::num(averageMpki(lru), 3), "0.00",
               TableFormatter::num(makePolicy(PolicyKind::Lru, 128, 8)
                                           ->storageBits() /
                                       8.0 / 1024.0,
                                   2)});
    table.row({"slru (this example)",
               TableFormatter::num(averageMpki(slru), 3),
               TableFormatter::num(mpkiReductionPct(lru, slru), 2),
               TableFormatter::num(
                   SlruPolicy(128, 8).storageBits() / 8.0 / 1024.0, 2)});
    table.row({"chirp", TableFormatter::num(averageMpki(chirp_results), 3),
               TableFormatter::num(mpkiReductionPct(lru, chirp_results), 2),
               TableFormatter::num(makePolicy(PolicyKind::Chirp, 128, 8)
                                           ->storageBits() /
                                       8.0 / 1024.0,
                                   2)});
    table.print();
    std::printf("\nAn honest reproduction finding: on this synthetic "
                "suite SLRU is a\nstrong unpublished baseline — most "
                "dead entries here are never re-hit\nat the L2, so "
                "\"evict never-hit entries first\" rivals prediction "
                "at a\nfraction of the storage.  Where entries see L2 "
                "reuse before dying\n(the paper's Observation 2; the "
                "db/bigdata lagged scans model it),\nSLRU's heuristic "
                "degrades while CHiRP's context prediction holds.\n"
                "See EXPERIMENTS.md for the discussion.\n");
    return 0;
}
