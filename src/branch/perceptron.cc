#include "branch/perceptron.hh"

#include <algorithm>
#include <cmath>

#include "util/bitfield.hh"
#include "util/hashing.hh"
#include "util/logging.hh"

namespace chirp
{

HashedPerceptron::HashedPerceptron(const PerceptronConfig &config)
    : config_(config)
{
    if (!isPowerOfTwo(config.tableEntries))
        chirp_fatal("perceptron table entries must be a power of two");
    const double hist_len =
        static_cast<double>(config.numTables) * config.historySegBits;
    // The classic perceptron threshold heuristic.
    theta_ = static_cast<int>(std::floor(1.93 * hist_len + 14.0));
    weights_.assign(
        static_cast<std::size_t>(config.numTables) * config.tableEntries,
        0);
    bias_.assign(config.tableEntries, 0);
}

std::size_t
HashedPerceptron::indexFor(Addr pc, unsigned table) const
{
    const unsigned seg_bits = config_.historySegBits;
    const std::uint64_t segment =
        (history_ >> (table * seg_bits)) & maskBits(seg_bits);
    const std::uint64_t mixed = (pc >> 2) ^ (segment * 0x9e3779b1ull) ^
                                (static_cast<std::uint64_t>(table) << 29);
    return static_cast<std::size_t>(
        foldXor(mixed, floorLog2(config_.tableEntries)));
}

int
HashedPerceptron::sumFor(Addr pc) const
{
    int sum = bias_[foldXor(pc >> 2, floorLog2(config_.tableEntries))];
    for (unsigned t = 0; t < config_.numTables; ++t) {
        sum += weights_[static_cast<std::size_t>(t) * config_.tableEntries +
                        indexFor(pc, t)];
    }
    return sum;
}

bool
HashedPerceptron::predict(Addr pc) const
{
    return sumFor(pc) >= 0;
}

void
HashedPerceptron::update(Addr pc, bool taken)
{
    train(pc, taken, sumFor(pc));
}

bool
HashedPerceptron::predictAndUpdate(Addr pc, bool taken)
{
    const int sum = sumFor(pc);
    train(pc, taken, sum);
    return sum >= 0;
}

void
HashedPerceptron::train(Addr pc, bool taken, int sum)
{
    const bool predicted = sum >= 0;
    if (predicted != taken || std::abs(sum) <= theta_) {
        auto bump = [&](std::int8_t &w) {
            const int next = w + (taken ? 1 : -1);
            w = static_cast<std::int8_t>(
                std::clamp(next, -config_.weightMax, config_.weightMax));
        };
        bump(bias_[foldXor(pc >> 2, floorLog2(config_.tableEntries))]);
        for (unsigned t = 0; t < config_.numTables; ++t) {
            bump(weights_[static_cast<std::size_t>(t) *
                              config_.tableEntries +
                          indexFor(pc, t)]);
        }
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

void
HashedPerceptron::reset()
{
    std::fill(weights_.begin(), weights_.end(), 0);
    std::fill(bias_.begin(), bias_.end(), 0);
    history_ = 0;
}

} // namespace chirp
