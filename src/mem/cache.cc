#include "mem/cache.hh"

namespace chirp
{

namespace
{

std::uint32_t
setsFor(const CacheConfig &config)
{
    // The LRU rank is one byte, so 255 ways is the widest stack.
    if (config.assoc == 0 || config.assoc > 255)
        chirp_fatal("cache '", config.name, "': ", config.assoc,
                    " ways outside 1..255");
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
    resetRanks();
}

bool
Cache::accessLine(Addr key)
{
    const std::uint32_t set = array_.setIndex(key);
    const int way = array_.findWay(set, array_.tagOf(key));
    if (way < 0) {
        fillMiss(set, key);
        return false;
    }
    const std::uint32_t assoc = array_.assoc();
    std::uint8_t *rank = &array_.dataAt(set, 0);
    ++hits_;
    lastKey_ = key;
    lastValid_ = true;
    promote(rank, assoc, static_cast<std::uint32_t>(way));
    return true;
}

bool
Cache::probe(Addr addr) const
{
    const Addr key = lineKey(addr);
    return array_.findWay(array_.setIndex(key), array_.tagOf(key)) >= 0;
}

void
Cache::resetRanks()
{
    const std::uint32_t assoc = array_.assoc();
    for (std::uint32_t set = 0; set < array_.numSets(); ++set) {
        for (std::uint32_t w = 0; w < assoc; ++w)
            array_.dataAt(set, w) = static_cast<std::uint8_t>(assoc - 1 - w);
    }
}

void
Cache::reset()
{
    array_.invalidateAll();
    resetRanks();
    hits_ = 0;
    misses_ = 0;
    lastValid_ = false;
}

} // namespace chirp
