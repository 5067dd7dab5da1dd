#include "server/allocator.h"

#include <algorithm>

#include "support/error.h"
#include "support/saturate.h"

namespace nse
{

namespace
{

/**
 * Generalized water-filling: split `capacity` across the demanding
 * clients in proportion to weightOf(i), capping each client at its
 * nominal rate and re-splitting the surplus until no client is
 * capped. Terminates in at most |demanding| rounds (each round caps
 * at least one client or is the last). Deterministic: clients are
 * scanned in index order and the arithmetic never depends on set
 * iteration order. weightOf runs once per demanding client per call.
 */
template <typename WeightFn>
void
waterFill(double capacity, const std::vector<ClientDemand> &demands,
          std::vector<double> &rates, WeightFn weightOf)
{
    struct Unsat
    {
        size_t client;
        double weight;
    };
    std::vector<Unsat> unsat;
    for (size_t i = 0; i < demands.size(); ++i)
        if (demands[i].demanding && demands[i].nominalRate > 0.0)
            unsat.push_back({i, weightOf(i)});

    double remaining = capacity;
    while (!unsat.empty() && remaining > 0.0) {
        double weightSum = 0.0;
        for (const Unsat &u : unsat)
            weightSum += u.weight;
        if (weightSum <= 0.0)
            break;
        // Cap whoever the split saturates; compact the rest in place.
        size_t kept = 0;
        for (const Unsat &u : unsat) {
            double share = remaining * u.weight / weightSum;
            // The cap test tolerates FP residue from the re-split
            // arithmetic: a share within rounding of the nominal rate
            // IS the nominal rate (an ulp-under share would otherwise
            // throttle the engine by an ulp, which the engine counts
            // as a degraded link for the whole transfer).
            if (demands[u.client].nominalRate <= share * (1.0 + 1e-12))
                // Capped at the client's own link; surplus re-splits.
                rates[u.client] = demands[u.client].nominalRate;
            else
                unsat[kept++] = u;
        }
        if (kept < unsat.size()) {
            // Rebuild the residual from scratch (capacity minus every
            // assigned rate, in index order) so the arithmetic never
            // depends on which round capped whom.
            remaining = capacity;
            for (size_t j = 0; j < demands.size(); ++j)
                remaining -= rates[j];
            unsat.resize(kept);
            continue;
        }
        // No one capped: final proportional split.
        for (const Unsat &u : unsat)
            rates[u.client] = remaining * u.weight / weightSum;
        break;
    }
}

} // namespace

void
EqualShareAllocator::allocate(double capacity, uint64_t,
                              const std::vector<ClientDemand> &demands,
                              std::vector<double> &rates) const
{
    waterFill(capacity, demands, rates, [](size_t) { return 1.0; });
}

void
WeightedShareAllocator::allocate(double capacity, uint64_t,
                                 const std::vector<ClientDemand> &demands,
                                 std::vector<double> &rates) const
{
    for (const ClientDemand &d : demands)
        if (d.demanding)
            NSE_CHECK(d.weight > 0.0, "non-positive client weight");
    waterFill(capacity, demands, rates,
              [&](size_t i) { return demands[i].weight; });
}

void
DeadlineAllocator::allocate(double capacity, uint64_t,
                            const std::vector<ClientDemand> &demands,
                            std::vector<double> &rates) const
{
    std::vector<size_t> order;
    for (size_t i = 0; i < demands.size(); ++i)
        if (demands[i].demanding && demands[i].nominalRate > 0.0)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return demands[a].nextFirstUse <
                                demands[b].nextFirstUse;
                     });
    double remaining = capacity;
    for (size_t i : order) {
        if (remaining <= 0.0)
            break;
        rates[i] = std::min(demands[i].nominalRate, remaining);
        remaining -= rates[i];
    }
}

PropFairAllocator::PropFairAllocator(uint64_t aging_quantum_cycles,
                                     uint64_t max_quanta)
    : quantum_(aging_quantum_cycles), maxQuanta_(max_quanta)
{
    NSE_CHECK(quantum_ > 0, "propfair aging quantum must be > 0");
}

uint64_t
PropFairAllocator::agedQuanta(uint64_t now, const ClientDemand &d) const
{
    if (d.nextFirstUse == UINT64_MAX || d.nextFirstUse >= now)
        return 0;
    return std::min(maxQuanta_, (now - d.nextFirstUse) / quantum_);
}

void
PropFairAllocator::allocate(double capacity, uint64_t now,
                            const std::vector<ClientDemand> &demands,
                            std::vector<double> &rates) const
{
    for (const ClientDemand &d : demands)
        if (d.demanding)
            NSE_CHECK(d.weight > 0.0, "non-positive client weight");
    waterFill(capacity, demands, rates, [&](size_t i) {
        return demands[i].weight *
               (1.0 + static_cast<double>(agedQuanta(now, demands[i])));
    });
}

uint64_t
PropFairAllocator::nextRefresh(
    uint64_t now, const std::vector<ClientDemand> &demands) const
{
    // Output changes when some demanding client's aging boost crosses
    // its next quantum edge: at nextFirstUse + (q+1)*quantum. Clients
    // at the max boost have no upcoming edge. Clients not yet past
    // their deadline are skipped too, which is exact only when that
    // deadline is the client's own next event: an executing client's
    // first use, which wakes the loop anyway. A mispredict-opened
    // block ranks on blockNextUseGlobal instead, and nothing wakes the
    // loop at that instant, so its first boost (at nextFirstUse +
    // quantum) lands at whatever allocation comes next (see the
    // contract gap in allocator.h).
    uint64_t next = UINT64_MAX;
    for (const ClientDemand &d : demands) {
        if (!d.demanding || d.nextFirstUse == UINT64_MAX ||
            d.nextFirstUse > now)
            continue;
        uint64_t q = agedQuanta(now, d);
        if (q >= maxQuanta_)
            continue;
        uint64_t edge =
            satAdd(d.nextFirstUse, satMul(q + 1, quantum_));
        if (edge > now)
            next = std::min(next, edge);
    }
    return next;
}

std::unique_ptr<BandwidthAllocator>
makeAllocator(const std::string &name)
{
    if (name == "equal")
        return std::make_unique<EqualShareAllocator>();
    if (name == "weighted")
        return std::make_unique<WeightedShareAllocator>();
    if (name == "deadline")
        return std::make_unique<DeadlineAllocator>();
    if (name == "propfair")
        return std::make_unique<PropFairAllocator>();
    fatal("unknown allocator: ", name,
          " (expected equal, weighted, deadline, or propfair)");
}

} // namespace nse
