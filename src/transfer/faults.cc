#include "transfer/faults.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"
#include "support/rng.h"
#include "support/saturate.h"

namespace nse
{

BandwidthTrace::BandwidthTrace(std::vector<RateSegment> segments)
    : segments_(std::move(segments))
{
    NSE_CHECK(!segments_.empty(), "empty segment list; default-construct "
                                  "a nominal trace instead");
    NSE_CHECK(segments_.front().startCycle == 0,
              "first trace segment must start at cycle 0");
    for (size_t i = 0; i < segments_.size(); ++i) {
        NSE_CHECK(std::isfinite(segments_[i].multiplier) &&
                      segments_[i].multiplier >= 0,
                  "trace multiplier must be finite and non-negative, "
                  "got ", segments_[i].multiplier);
        if (i > 0) {
            NSE_CHECK(segments_[i - 1].startCycle <
                          segments_[i].startCycle,
                      "trace segments must be strictly sorted");
        }
    }
}

BandwidthTrace
BandwidthTrace::step(uint64_t at, double after)
{
    if (at == 0)
        return BandwidthTrace({{0, after}});
    return BandwidthTrace({{0, 1.0}, {at, after}});
}

BandwidthTrace
BandwidthTrace::bursts(uint64_t seed, uint64_t meanWindowCycles,
                       double degradedMultiplier, uint64_t horizonCycles)
{
    NSE_CHECK(meanWindowCycles > 0, "burst window must be positive");
    NSE_CHECK(std::isfinite(degradedMultiplier) &&
                  degradedMultiplier >= 0,
              "degraded multiplier must be finite and non-negative, "
              "got ", degradedMultiplier);
    Rng rng(seed ^ 0x6c1b8e5a2f9d3c47ULL);
    std::vector<RateSegment> segs;
    uint64_t t = 0;
    bool degraded = false;
    while (t < horizonCycles) {
        // Window length jittered in [mean/2, 3*mean/2).
        uint64_t len = meanWindowCycles / 2 + rng.below(meanWindowCycles);
        len = std::max<uint64_t>(len, 1);
        segs.push_back({t, degraded ? degradedMultiplier : 1.0});
        t += len;
        degraded = !degraded;
    }
    segs.push_back({std::max<uint64_t>(horizonCycles, t), 1.0});
    return BandwidthTrace(std::move(segs));
}

bool
FaultPlan::nominal() const
{
    if (!trace.nominal() || dropsPerMByte > 0.0)
        return false;
    for (const auto &d : forcedDrops)
        if (!d.empty())
            return false;
    return true;
}

void
FaultPlan::validate() const
{
    NSE_CHECK(std::isfinite(backoffFactor) && backoffFactor >= 0,
              "backoff factor must be finite and non-negative, got ",
              backoffFactor);
    NSE_CHECK(std::isfinite(dropsPerMByte) && dropsPerMByte >= 0,
              "drop rate must be finite and non-negative, got ",
              dropsPerMByte);
}

uint64_t
FaultPlan::retryDelay(int attempts) const
{
    NSE_ASSERT(attempts >= 1, "drop with no retry attempts");
    double delay = 0;
    double step = static_cast<double>(retryTimeoutCycles);
    for (int k = 0; k < attempts; ++k) {
        delay += step;
        step *= backoffFactor;
    }
    return satFromDouble(std::ceil(delay));
}

std::vector<DropEvent>
FaultPlan::dropsFor(int streamIdx, uint64_t totalBytes) const
{
    std::vector<DropEvent> drops;
    if (streamIdx >= 0 &&
        static_cast<size_t>(streamIdx) < forcedDrops.size()) {
        for (const DropEvent &d : forcedDrops[static_cast<size_t>(
                 streamIdx)]) {
            NSE_CHECK(d.offsetBytes > 0 && d.offsetBytes < totalBytes,
                      "forced drop offset must be interior to the "
                      "stream");
            NSE_CHECK(d.attempts >= 1, "forced drop needs >= 1 attempt");
            NSE_CHECK(drops.empty() ||
                          drops.back().offsetBytes < d.offsetBytes,
                      "forced drops must be strictly increasing");
            drops.push_back(d);
        }
        return drops;
    }
    if (dropsPerMByte <= 0.0 || totalBytes < 2)
        return drops;
    NSE_CHECK(maxAttempts >= 1, "maxAttempts must be at least 1");

    // Walk the stream in fixed chunks; each chunk drops independently
    // with probability dropsPerMByte * chunk / 2^20, at a uniform
    // offset inside the chunk. Mixing the stream index into the seed
    // decorrelates streams.
    constexpr uint64_t kChunk = 4096;
    Rng rng(dropSeed ^
            (0x9e3779b97f4a7c15ULL *
             (static_cast<uint64_t>(streamIdx) + 0x51ed2701ULL)));
    double p = dropsPerMByte * static_cast<double>(kChunk) /
               (1024.0 * 1024.0);
    p = std::min(p, 1.0);
    // 53-bit uniform fraction in [0, 1).
    auto frac = [&rng] {
        return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    };
    for (uint64_t base = 0; base < totalBytes; base += kChunk) {
        if (frac() >= p)
            continue;
        uint64_t span = std::min(kChunk, totalBytes - base);
        uint64_t off = base + rng.below(span);
        // Strictly interior: a drop at offset 0 or at the end would be
        // a no-op connection loss.
        off = std::min(std::max<uint64_t>(off, 1), totalBytes - 1);
        int attempts =
            1 + static_cast<int>(
                    rng.below(static_cast<uint64_t>(maxAttempts)));
        if (!drops.empty() && drops.back().offsetBytes >= off)
            continue; // keep offsets strictly increasing
        drops.push_back({off, attempts});
    }
    return drops;
}

} // namespace nse
