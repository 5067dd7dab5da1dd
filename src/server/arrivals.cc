#include "server/arrivals.h"

#include <algorithm>

#include "support/error.h"
#include "support/rng.h"
#include "support/saturate.h"

namespace nse
{

std::vector<uint64_t>
ArrivalPlan::cycles(size_t n) const
{
    std::vector<uint64_t> out;
    out.reserve(n);
    Rng rng(seed ^ 0xa55a5aa5u);
    for (size_t i = 0; i < n; ++i) {
        switch (kind) {
          case ArrivalKind::Simultaneous:
            out.push_back(0);
            break;
          case ArrivalKind::Staggered:
            // Saturate: a huge stagger times a large fleet must clamp
            // to "effectively never", not wrap into an early arrival
            // that jumps the queue ahead of the whole fleet.
            out.push_back(satMul(static_cast<uint64_t>(i),
                                 meanGapCycles));
            break;
          case ArrivalKind::Uniform:
            NSE_CHECK(windowCycles > 0,
                      "uniform arrivals need windowCycles > 0");
            out.push_back(rng.below(windowCycles));
            break;
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace nse
