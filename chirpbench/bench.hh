/**
 * @file
 * Shared declarations of the repo benchmark (chirpbench): workload
 * definitions, the per-job correctness digest, metric output and the
 * traced per-layer run.
 */

#ifndef CHIRPBENCH_BENCH_HH
#define CHIRPBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace chirpbench
{

/** One replacement policy of a workload's sweep. */
struct PolicySpec
{
    std::string tag;               //!< unique within the workload
    chirp::PolicyFactory factory;
};

/** A named benchmark workload: suite shape, model and policy set. */
struct Workload
{
    std::string name;
    chirp::SimConfig config;
    chirp::SuiteOptions suite;
    std::vector<PolicySpec> policies;
    /** Index of LRU and of default-config CHiRP in `policies`. */
    std::size_t lruIdx = 0;
    std::size_t chirpIdx = 0;
    /**
     * Warm workloads replay traces mapped from a trace cache filled
     * during set-up; cold ones generate every trace inside the
     * measured phase into a memory-only store.
     */
    bool warm = false;
};

/**
 * Build workload @p name for suite seed @p seed.  @p tiny shrinks the
 * suite and trace length for the benchmark's own smoke tests.  Returns
 * false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
                  Workload &out);

/** The CHiRP history/table variants history_sweep evaluates. */
std::vector<PolicySpec> chirpVariants();

/**
 * Exact digest of one job's statistics: every integer counter plus
 * the bit pattern of l2Efficiency.  Equal digests mean equal stats.
 */
std::uint64_t statsDigest(const chirp::SimStats &stats);

/** Hex form used in golden files. */
std::string digestHex(std::uint64_t digest);

/** Monotonic seconds since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The tail value the sample count supports: the highest percentile
 * with at least ten samples beyond it (the maximum below eleven
 * samples).
 */
double tailValue(std::vector<double> values);

/** Which percentile tailValue() reports for @p samples values. */
double tailPercentile(std::size_t samples);

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** Inputs of the traced run that the untraced set-up already built. */
struct TracedInputs
{
    const Workload *workload = nullptr;
    std::vector<chirp::WorkloadConfig> suite;
    /** Filled cache directory (warm workloads) or "". */
    std::string cacheDir;
    /** Scratch directory for throwaway trace caches. */
    std::string workDir;
    /** Wall seconds of the untraced runSuiteMulti at jobs=1. */
    double runnerWallJobs1 = 0.0;
    /** Fingerprint JSON object, copied into the span file. */
    std::string fingerprint;
};

/**
 * Run the traced per-layer measurement for one workload and add every
 * per-layer metric to @p out.  Spans are kept in memory and written to
 * @p span_path as JSON when the run ends.
 */
void runTraced(const TracedInputs &in, const std::string &span_path,
               MetricMap &out);

} // namespace chirpbench

#endif // CHIRPBENCH_BENCH_HH
