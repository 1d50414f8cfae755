#include "tlb/tlb_hierarchy.hh"

#include <typeinfo>

#include "core/lru.hh"
#include "util/logging.hh"

namespace chirp
{

std::unique_ptr<ReplacementPolicy>
TlbHierarchy::makeL1Policy(const TlbConfig &config)
{
    return std::make_unique<LruPolicy>(config.entries / config.assoc,
                                       config.assoc);
}

TlbHierarchy::TlbHierarchy(const TlbHierarchyConfig &config,
                           std::unique_ptr<ReplacementPolicy> l2_policy,
                           std::unique_ptr<PageWalker> walker)
    : config_(config), l1i_(config.l1i, makeL1Policy(config.l1i)),
      l1d_(config.l1d, makeL1Policy(config.l1d)),
      l2_(config.l2, std::move(l2_policy)), walker_(std::move(walker))
{
    if (!walker_)
        chirp_fatal("TLB hierarchy needs a page walker");
    l2WantsRetire_ = l2_.policy().wantsRetireEvents();
    ReplacementPolicy &policy = l2_.policy();
    if (typeid(policy) == typeid(ChirpPolicy))
        l2Chirp_ = static_cast<ChirpPolicy *>(&policy);
    else if (typeid(policy) == typeid(GhrpPolicy))
        l2Ghrp_ = static_cast<GhrpPolicy *>(&policy);
}

std::unique_ptr<TlbHierarchy>
TlbHierarchy::makeDefault(std::unique_ptr<ReplacementPolicy> l2_policy,
                          std::unique_ptr<PageWalker> walker)
{
    return std::make_unique<TlbHierarchy>(
        TlbHierarchyConfig{}, std::move(l2_policy), std::move(walker));
}

void
TlbHierarchy::finalizeEfficiency(std::uint64_t now)
{
    l2_.finalizeEfficiency(now);
}

void
TlbHierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    walker_->reset();
}

} // namespace chirp
