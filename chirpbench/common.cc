#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hh"

namespace chirpbench
{

std::uint64_t
statsDigest(const chirp::SimStats &stats)
{
    // FNV-1a over the little-endian bytes of each field in a fixed
    // order; the double goes in as its IEEE-754 bit pattern so any
    // change in the last ulp shows.
    std::uint64_t efficiency_bits = 0;
    static_assert(sizeof(efficiency_bits) == sizeof(stats.l2Efficiency));
    std::memcpy(&efficiency_bits, &stats.l2Efficiency,
                sizeof(efficiency_bits));
    const std::uint64_t fields[] = {
        stats.instructions,   stats.warmupInstructions,
        stats.cycles,         stats.l1iTlbAccesses,
        stats.l1iTlbMisses,   stats.l1dTlbAccesses,
        stats.l1dTlbMisses,   stats.l2TlbAccesses,
        stats.l2TlbHits,      stats.l2TlbMisses,
        stats.branches,       stats.branchMispredicts,
        stats.tableReads,     stats.tableWrites,
        efficiency_bits,      stats.walkCycles,
        stats.walkLatency,
    };
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint64_t field : fields) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            hash ^= (field >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
tailValue(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n < 11 ? values.back() : values[n - 11];
}

double
tailPercentile(std::size_t samples)
{
    if (samples < 11)
        return 100.0;
    return 100.0 * static_cast<double>(samples - 11) /
           static_cast<double>(samples - 1);
}

} // namespace chirpbench
