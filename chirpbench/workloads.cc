#include "bench.hh"

namespace chirpbench
{

using namespace chirp;

namespace
{

PolicySpec
chirpSpec(const std::string &tag, const ChirpConfig &config)
{
    return {tag, [config](std::uint32_t sets, std::uint32_t assoc) {
                return std::unique_ptr<ReplacementPolicy>(
                    makeChirp(sets, assoc, config));
            }};
}

SimConfig
mpkiOnlyConfig()
{
    SimConfig config;
    config.simulateCaches = false;
    config.simulateBranch = false;
    return config;
}

} // namespace

std::vector<PolicySpec>
chirpVariants()
{
    std::vector<PolicySpec> variants;
    // History shape: path length with and without the branch
    // histories (Fig 2).  path=16 with both histories is the default.
    for (const unsigned path : {4u, 8u, 16u, 32u}) {
        for (const bool branch : {true, false}) {
            ChirpConfig config;
            config.history.pathEvents = path;
            config.history.useCondHist = branch;
            config.history.useUncondHist = branch;
            variants.push_back(chirpSpec(
                "chirp.path" + std::to_string(path) +
                    (branch ? "+br" : ""),
                config));
        }
    }
    // Table shape, counters and hashing (Fig 9, parameter sweep) keep
    // the default history, so the runner gives them one shared
    // signature stream; pcbits4 changes the path-history PC slice.
    ChirpConfig config;
    config.tableEntries = 1024;
    variants.push_back(chirpSpec("chirp.table1k", config));
    config = {};
    config.tableEntries = 16384;
    variants.push_back(chirpSpec("chirp.table16k", config));
    config = {};
    config.counterBits = 3;
    config.deadThreshold = 3;
    variants.push_back(chirpSpec("chirp.ctr3b.th3", config));
    config = {};
    config.hash = HashKind::Fold;
    variants.push_back(chirpSpec("chirp.hash_fold", config));
    config = {};
    config.hash = HashKind::Crc;
    variants.push_back(chirpSpec("chirp.hash_crc", config));
    config = {};
    config.history.pathPcBits = 4;
    variants.push_back(chirpSpec("chirp.pcbits4", config));
    return variants;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
             Workload &out)
{
    out = {};
    out.name = name;
    out.suite.baseSeed = seed;
    if (name == "policy_sweep") {
        // Fig 6/7/11: all six paper policies over a mixed suite, traces
        // mapped warm from the cache.  Replay across policies is the
        // largest cost.
        out.config = mpkiOnlyConfig();
        out.suite.size = 128;
        out.suite.traceLength = 400'000;
        out.warm = true;
        for (const PolicyKind kind : allPolicyKinds()) {
            if (kind == PolicyKind::Lru)
                out.lruIdx = out.policies.size();
            if (kind == PolicyKind::Chirp)
                out.chirpIdx = out.policies.size();
            out.policies.push_back(
                {policyKindName(kind), Runner::factoryFor(kind)});
        }
    } else if (name == "history_sweep") {
        // Fig 2/9 and the parameter sweep: one policy kind under many
        // signature and table configurations.
        out.config = mpkiOnlyConfig();
        out.suite.size = 128;
        out.suite.traceLength = 400'000;
        out.warm = true;
        out.policies.push_back(
            {"lru", Runner::factoryFor(PolicyKind::Lru)});
        out.lruIdx = 0;
        for (PolicySpec &variant : chirpVariants()) {
            if (variant.tag == "chirp.path16+br")
                out.chirpIdx = out.policies.size();
            out.policies.push_back(std::move(variant));
        }
    } else if (name == "timing_cold") {
        // Fig 8/10: the full timing model with caches and branch
        // predictor, traces generated inside the measured phase as on
        // a first run.  The recorder dominates; replay is small.
        out.config = SimConfig{};
        out.suite.size = 192;
        out.suite.traceLength = 400'000;
        out.warm = false;
        out.policies.push_back(
            {"lru", Runner::factoryFor(PolicyKind::Lru)});
        out.policies.push_back(
            {"chirp", Runner::factoryFor(PolicyKind::Chirp)});
        out.lruIdx = 0;
        out.chirpIdx = 1;
    } else {
        return false;
    }
    if (tiny) {
        out.suite.size = 6;
        out.suite.traceLength = 20'000;
    }
    return true;
}

} // namespace chirpbench
