#include "mem/cache.hh"

namespace chirp
{

namespace
{

std::uint32_t
setsFor(const CacheConfig &config)
{
    const std::uint64_t lines = config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % config.assoc != 0)
        chirp_fatal("cache '", config.name, "': size ", config.sizeBytes,
                    " not divisible into ", config.assoc, "-way sets of ",
                    config.lineBytes, "B lines");
    return static_cast<std::uint32_t>(lines / config.assoc);
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config), lineShift_(floorLog2(config.lineBytes)),
      array_(setsFor(config), config.assoc)
{
    if (!isPowerOfTwo(config.lineBytes))
        chirp_fatal("cache '", config.name, "': line size must be a power "
                    "of two");
}

bool
Cache::accessLine(Addr key)
{
    ++tick_;
    lastKey_ = key;
    lastValid_ = true;
    const std::uint32_t set = array_.setIndex(key);
    const Addr tag = array_.tagOf(key);

    const int way = array_.findWay(set, tag);
    if (way >= 0) {
        array_.dataAt(set, way).lastUse = tick_;
        ++hits_;
        return true;
    }

    ++misses_;
    int victim = array_.invalidWay(set);
    if (victim < 0) {
        // LRU by recency tick.
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::uint32_t w = 0; w < array_.assoc(); ++w) {
            const std::uint64_t t = array_.dataAt(set, w).lastUse;
            if (t < oldest) {
                oldest = t;
                victim = static_cast<int>(w);
            }
        }
    }
    array_.fill(set, static_cast<std::uint32_t>(victim), tag);
    array_.dataAt(set, victim).lastUse = tick_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Addr key = lineKey(addr);
    return array_.findWay(array_.setIndex(key), array_.tagOf(key)) >= 0;
}

void
Cache::reset()
{
    array_.invalidateAll();
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
    lastValid_ = false;
}

} // namespace chirp
