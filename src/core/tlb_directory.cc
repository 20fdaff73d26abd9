#include "core/tlb_directory.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/obs/registry.hh"

namespace starnuma
{
namespace core
{

int
TlbHolderMask::count() const
{
    int n = 0;
    for (auto w : words)
        n += std::popcount(w);
    return n;
}

TlbDirectory::TlbDirectory(int n_cores) : cores(n_cores)
{
    sn_assert(cores > 0 && cores <= 256,
              "TLB directory bit-set supports up to 256 cores");
}

// lint: cold-path one-time setup before the replay loop
void
TlbDirectory::preallocate(PageNum base, std::size_t pages)
{
    masks.reserve(base, pages);
}

// lint: hot-path queried per migrated page during shootdowns
TlbHolderMask
TlbDirectory::holders(PageNum page) const
{
    const TlbHolderMask *m = masks.find(page);
    return m ? *m : TlbHolderMask{};
}

int
TlbDirectory::holderCount(PageNum page) const
{
    return holders(page).count();
}

// lint: hot-path one shootdown per migrated page
int
TlbDirectory::shootdown(PageNum page)
{
    int targeted = holderCount(page);
    if (targeted > 0) {
        *masks.find(page) = TlbHolderMask{};
        --tracked;
    }
    sent_ += targeted;
    saved_ += cores - targeted;
    return targeted;
}

double
TlbDirectory::savingsRatio()
const
{
    std::uint64_t total = sent_ + saved_;
    return total ? static_cast<double>(saved_) / static_cast<double>(total)
                 : 0.0;
}

// lint: cold-path stats export, once per run when observing
void
TlbDirectory::registerStats(obs::Registry &r,
                            const std::string &prefix) const
{
    r.addCounter(prefix + ".shootdownsSent", &sent_);
    r.addCounter(prefix + ".shootdownsSaved", &saved_);
    r.addGaugeFn(prefix + ".savingsRatio",
                 [this] { return savingsRatio(); });
    r.addCounterFn(prefix + ".trackedPages",
                   [this] { return trackedPages(); });
}

} // namespace core
} // namespace starnuma
