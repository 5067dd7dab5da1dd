#include "cache/edge_cache.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "support/fnv1a.h"

namespace nse
{

uint64_t
EdgeKey::hash() const
{
    Fnv1a f;
    f.u64(contentKey);
    f.u64(static_cast<uint64_t>(mode));
    f.u64(static_cast<uint64_t>(layout.parallel));
    f.u64(static_cast<uint64_t>(layout.ordering));
    f.u64(static_cast<uint64_t>(layout.partitioned));
    f.u64(static_cast<uint64_t>(layout.classStrict));
    uint64_t cpb = 0;
    static_assert(sizeof(cpb) == sizeof(cyclesPerByte));
    std::memcpy(&cpb, &cyclesPerByte, sizeof(cpb));
    f.u64(cpb);
    f.u64(static_cast<uint64_t>(parallelLimit));
    return f.h;
}

EdgeKey
edgeKeyOf(const SimContext &ctx, const SimConfig &cfg)
{
    NSE_CHECK(cfg.mode != SimConfig::Mode::Strict,
              "a Strict configuration has no edge artifact");
    EdgeKey key;
    key.contentKey = ctx.contentKey();
    key.mode = cfg.mode;
    // Only knobs that change the served bytes (or their planned
    // order) may reach the key: Interleaved's single file starts at
    // cycle 0 (no schedule); Parallel's greedy schedule is keyed on
    // the nominal link cost and concurrency limit exactly as the
    // context's own ScheduleKey is.
    key.layout = layoutKeyOf(cfg);
    if (cfg.mode == SimConfig::Mode::Parallel) {
        key.cyclesPerByte = cfg.link.cyclesPerByte;
        key.parallelLimit = cfg.parallelLimit;
    }
    return key;
}

uint64_t
artifactBytes(const SimContext &ctx, const SimConfig &cfg)
{
    return ctx.layout(layoutKeyOf(cfg)).totalBytes;
}

EdgeCache::EdgeCache(EdgeCacheOptions opts) : opts_(opts) {}

void
EdgeCache::emit(ObsKind kind, uint64_t cycle, uint64_t bytes,
                uint64_t keyHash, int stream) const
{
    if (!opts_.sink)
        return;
    ObsEvent ev;
    ev.cycle = cycle;
    ev.kind = kind;
    ev.stream = stream;
    ev.a = bytes;
    ev.b = keyHash;
    opts_.sink->record(ev);
}

void
EdgeCache::touch(Entry &e)
{
    e.lastUse = ++useSeq_;
    ++e.uses;
}

EdgeCache::Request
EdgeCache::request(const SimContext &ctx, const SimConfig &cfg,
                   uint64_t now)
{
    advanceTo(now);
    EdgeKey key = edgeKeyOf(ctx, cfg);
    uint64_t bytes = artifactBytes(ctx, cfg);
    ++stats_.requests;
    stats_.bytesServed += bytes;

    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.residentNow) {
        touch(it->second);
        ++stats_.hits;
        emit(ObsKind::CacheHit, now, bytes, it->second.keyHash);
        return Request{true, -1};
    }
    ++stats_.misses;
    if (it != entries_.end() && it->second.fetch >= 0) {
        // A fetch of this very artifact is already in flight: join it
        // instead of duplicating origin traffic.
        touch(it->second);
        ++stats_.joins;
        emit(ObsKind::CacheMiss, now, bytes, it->second.keyHash,
             it->second.fetch);
        return Request{false, it->second.fetch};
    }
    ++stats_.fetches;
    stats_.bytesFromOrigin += bytes;
    Entry e;
    e.bytes = bytes;
    e.keyHash = key.hash();
    e.fetch = uplink_.addStream(cat("origin-", e.keyHash), bytes);
    touch(e);
    uplink_.demandStart(e.fetch, now);
    inFlight_.emplace_back(e.fetch, key);
    emit(ObsKind::CacheMiss, now, bytes, e.keyHash, e.fetch);
    entries_[key] = e;
    return Request{false, e.fetch};
}

void
EdgeCache::prewarm(const SimContext &ctx, const SimConfig &cfg)
{
    EdgeKey key = edgeKeyOf(ctx, cfg);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.residentNow)
        return;
    NSE_CHECK(it == entries_.end(),
              "cannot prewarm an artifact already being fetched");
    Entry e;
    e.bytes = artifactBytes(ctx, cfg);
    e.keyHash = key.hash();
    e.lastUse = ++useSeq_;
    insertResident(key, e, uplink_.time());
}

void
EdgeCache::advanceTo(uint64_t now)
{
    if (now > uplink_.time())
        uplink_.advanceTo(now);
    settle(uplink_.time());
}

void
EdgeCache::settle(uint64_t upTo)
{
    if (inFlight_.empty())
        return;
    // Completed fetches settle in arrival order (fetch start order
    // breaks exact ties), so residency and eviction depend only on
    // the fetch history — never on how often advanceTo was called.
    struct DoneFetch
    {
        uint64_t finishedAt;
        size_t idx;
    };
    std::vector<DoneFetch> done;
    for (size_t i = 0; i < inFlight_.size(); ++i) {
        const Stream &s = uplink_.stream(inFlight_[i].first);
        if (s.state == StreamState::Done && s.finishedAt <= upTo)
            done.push_back({s.finishedAt, i});
    }
    if (done.empty())
        return;
    std::sort(done.begin(), done.end(),
              [](const DoneFetch &x, const DoneFetch &y) {
                  return std::tie(x.finishedAt, x.idx) <
                         std::tie(y.finishedAt, y.idx);
              });
    std::vector<uint8_t> settled(inFlight_.size(), 0);
    for (const DoneFetch &d : done) {
        settled[d.idx] = 1;
        const EdgeKey &key = inFlight_[d.idx].second;
        auto it = entries_.find(key);
        NSE_ASSERT(it != entries_.end() && it->second.fetch >= 0,
                   "in-flight fetch lost its cache entry");
        Entry e = it->second;
        e.fetch = -1;
        if (opts_.capacityBytes != 0 && e.bytes > opts_.capacityBytes) {
            // Larger than the whole cache: its waiters are served
            // straight off the fetch, but it is never retained (and
            // eviction therefore always terminates).
            ++stats_.uncacheable;
            entries_.erase(it);
            continue;
        }
        it->second = e;
        insertResident(key, it->second, d.finishedAt);
    }
    size_t w = 0;
    for (size_t i = 0; i < inFlight_.size(); ++i)
        if (!settled[i])
            inFlight_[w++] = inFlight_[i];
    inFlight_.resize(w);
}

void
EdgeCache::insertResident(const EdgeKey &key, Entry &e, uint64_t cycle)
{
    e.residentNow = true;
    e.fetch = -1;
    if (entries_.find(key) == entries_.end())
        entries_[key] = e;
    ++stats_.insertions;
    ++stats_.residentEntries;
    stats_.residentBytes += e.bytes;
    stats_.insertedBytes += e.bytes;
    evictUntilFits(cycle);
}

void
EdgeCache::evictUntilFits(uint64_t cycle)
{
    if (opts_.capacityBytes == 0)
        return;
    while (stats_.residentBytes > opts_.capacityBytes) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.residentNow)
                continue;
            if (victim == entries_.end()) {
                victim = it;
                continue;
            }
            const Entry &v = victim->second, &c = it->second;
            bool better = opts_.policy == EvictionPolicy::LRU
                              ? c.lastUse < v.lastUse
                              : std::tie(c.uses, c.lastUse) <
                                    std::tie(v.uses, v.lastUse);
            if (better)
                victim = it;
        }
        NSE_ASSERT(victim != entries_.end(),
                   "resident bytes over capacity with nothing resident");
        ++stats_.evictions;
        --stats_.residentEntries;
        stats_.residentBytes -= victim->second.bytes;
        stats_.evictedBytes += victim->second.bytes;
        emit(ObsKind::CacheEvict, cycle, victim->second.bytes,
             victim->second.keyHash);
        entries_.erase(victim);
    }
}

bool
EdgeCache::fetchReady(int fetch) const
{
    const Stream &s = uplink_.stream(fetch);
    return uplink_.hasArrived(fetch,
                               static_cast<uint64_t>(s.totalBytes));
}

uint64_t
EdgeCache::nextFetchStep(int fetch) const
{
    const Stream &s = uplink_.stream(fetch);
    return uplink_.nextStepToward(fetch,
                                   static_cast<uint64_t>(s.totalBytes));
}

bool
EdgeCache::resident(const SimContext &ctx, const SimConfig &cfg) const
{
    auto it = entries_.find(edgeKeyOf(ctx, cfg));
    return it != entries_.end() && it->second.residentNow;
}

} // namespace nse
