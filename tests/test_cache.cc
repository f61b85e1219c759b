/** @file Cache level and hierarchy tests: LRU, dirtiness, clflush, and
 *  a differential check of CacheLevel against a naive reference. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hh"
#include "sys/cache.hh"

namespace {

using leaky::sys::CacheHierarchy;
using leaky::sys::CacheHierarchyConfig;
using leaky::sys::CacheLevel;
using leaky::sys::CacheLevelConfig;

CacheLevelConfig
tinyCache(std::uint32_t ways = 2, std::uint64_t lines = 8)
{
    CacheLevelConfig cfg;
    cfg.name = "tiny";
    cfg.line_bytes = 64;
    cfg.ways = ways;
    cfg.size_bytes = lines * 64;
    cfg.latency = 1'000;
    return cfg;
}

TEST(CacheLevel, MissThenHit)
{
    CacheLevel cache(tinyCache());
    EXPECT_FALSE(cache.access(5, false));
    cache.insert(5, false);
    EXPECT_TRUE(cache.access(5, false));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheLevel, LruEvictsLeastRecentlyUsed)
{
    // 2 ways, 4 sets: lines 0, 4, 8 map to set 0.
    CacheLevel cache(tinyCache());
    cache.insert(0, false);
    cache.insert(4, false);
    EXPECT_TRUE(cache.access(0, false)); // Touch 0: 4 becomes LRU.
    const auto ev = cache.insert(8, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, 4u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(8));
    EXPECT_FALSE(cache.contains(4));
}

TEST(CacheLevel, DirtyEvictionReported)
{
    CacheLevel cache(tinyCache());
    cache.insert(0, false);
    cache.access(0, /*is_write=*/true); // Dirty it.
    cache.insert(4, false);
    const auto ev = cache.insert(8, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, 0u);
    EXPECT_TRUE(ev.dirty);
}

TEST(CacheLevel, FlushReportsDirtiness)
{
    CacheLevel cache(tinyCache());
    cache.insert(3, true);
    EXPECT_TRUE(cache.flush(3));
    EXPECT_FALSE(cache.contains(3));
    EXPECT_FALSE(cache.flush(3)); // Already gone.
    cache.insert(3, false);
    EXPECT_FALSE(cache.flush(3)); // Clean flush.
}

TEST(CacheHierarchy, MissProbesAllLevelsAndFills)
{
    CacheHierarchy caches(CacheHierarchyConfig::paperDefault());
    auto first = caches.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.latency, caches.missLatency());
    caches.fill(0x1000, false, first);

    const auto second = caches.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, caches.level(0).config().latency);
}

TEST(CacheHierarchy, FlushForcesNextAccessToMiss)
{
    CacheHierarchy caches(CacheHierarchyConfig::paperDefault());
    auto res = caches.access(0x2000, false);
    caches.fill(0x2000, false, res);
    EXPECT_TRUE(caches.access(0x2000, false).hit);
    EXPECT_FALSE(caches.flush(0x2000));
    EXPECT_FALSE(caches.access(0x2000, false).hit);
}

TEST(CacheHierarchy, DirtyLlcEvictionBecomesWriteback)
{
    // Tiny two-level hierarchy so evictions are easy to force.
    CacheHierarchyConfig cfg;
    cfg.levels.push_back(tinyCache(1, 2)); // 2 sets, direct-mapped.
    cfg.levels.push_back(tinyCache(1, 4)); // 4 sets, direct-mapped.
    CacheHierarchy caches(cfg);

    auto res = caches.access(0 * 64, true);
    caches.fill(0 * 64, true, res);
    EXPECT_TRUE(res.writebacks.empty());

    // Line 4 maps to LLC set 0 too: evicts dirty line 0 to memory.
    auto res2 = caches.access(4 * 64, false);
    caches.fill(4 * 64, false, res2);
    ASSERT_EQ(res2.writebacks.size(), 1u);
    EXPECT_EQ(res2.writebacks[0], 0u);
}

TEST(CacheHierarchy, ConfigsMatchPaper)
{
    const auto paper = CacheHierarchyConfig::paperDefault();
    ASSERT_EQ(paper.levels.size(), 2u);
    EXPECT_EQ(paper.levels[0].size_bytes, 32u * 1024);
    EXPECT_EQ(paper.levels[1].size_bytes, 4ull * 1024 * 1024);
    EXPECT_EQ(paper.levels[1].ways, 16u);

    const auto large = CacheHierarchyConfig::largeHierarchy();
    ASSERT_EQ(large.levels.size(), 3u);
    EXPECT_EQ(large.levels[1].size_bytes, 256u * 1024);
    EXPECT_EQ(large.levels[2].size_bytes, 6ull * 1024 * 1024);
}

// ---------------------------------------------------------------------
// Differential check: CacheLevel against the naive layout it replaced,
// 16-byte lines (tag, plus one word holding the recency stamp, 0 for
// an invalid way, and the dirty flag in the top bit), a hit scan and a
// separate victim scan, and division indexing for every set count.

class ReferenceLevel
{
  public:
    explicit ReferenceLevel(const CacheLevelConfig &cfg)
        : ways_(cfg.ways),
          sets_(static_cast<std::uint32_t>(cfg.size_bytes /
                                           (cfg.ways * cfg.line_bytes))),
          lines_(static_cast<std::size_t>(sets_) * ways_)
    {
    }

    bool
    access(std::uint64_t line_addr, bool is_write)
    {
        if (Line *line = find(line_addr)) {
            line->lru = ++clock_ | (line->lru & kDirty) |
                        (is_write ? kDirty : 0);
            hits_ += 1;
            return true;
        }
        misses_ += 1;
        return false;
    }

    CacheLevel::Eviction
    insert(std::uint64_t line_addr, bool dirty)
    {
        if (Line *line = find(line_addr)) {
            line->lru = ++clock_ | (line->lru & kDirty) |
                        (dirty ? kDirty : 0);
            return {};
        }
        const std::size_t set = line_addr % sets_;
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &line = lines_[set * ways_ + w];
            if (line.lru == 0) {
                victim = &line;
                break;
            }
            if (!victim || (line.lru & ~kDirty) < (victim->lru & ~kDirty))
                victim = &line;
        }
        CacheLevel::Eviction ev;
        if (victim->lru != 0) {
            ev.valid = true;
            ev.dirty = (victim->lru & kDirty) != 0;
            ev.line_addr = victim->tag * sets_ + set;
        }
        victim->tag = line_addr / sets_;
        victim->lru = ++clock_ | (dirty ? kDirty : 0);
        return ev;
    }

    bool
    flush(std::uint64_t line_addr)
    {
        Line *line = find(line_addr);
        if (!line)
            return false;
        const bool dirty = (line->lru & kDirty) != 0;
        line->lru = 0;
        return dirty;
    }

    bool contains(std::uint64_t line_addr) { return find(line_addr); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
    };
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 63;

    Line *
    find(std::uint64_t line_addr)
    {
        const std::size_t set = line_addr % sets_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &line = lines_[set * ways_ + w];
            if (line.lru != 0 && line.tag == line_addr / sets_)
                return &line;
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint32_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** A geometry of @p sets sets with @p ways 64-byte ways. */
CacheLevelConfig
geometry(std::uint32_t sets, std::uint32_t ways)
{
    CacheLevelConfig cfg;
    cfg.name = "diff";
    cfg.ways = ways;
    cfg.size_bytes = std::uint64_t{sets} * ways * 64;
    return cfg;
}

/**
 * Seeded random access/insert/flush/contains sequence. Most lines fall
 * into a few hot sets, each with twice as many tags as ways, so LRU
 * victims, dirty evictions and refreshes of present lines are frequent;
 * the rest spread over the whole level or carry tags far past it.
 */
void
expectSameAsReference(std::uint32_t sets, std::uint32_t ways,
                      std::uint64_t seed)
{
    const CacheLevelConfig cfg = geometry(sets, ways);
    CacheLevel cache(cfg);
    ReferenceLevel ref(cfg);
    leaky::sim::Rng rng(seed);
    std::vector<std::uint64_t> hot_sets(6);
    for (auto &set : hot_sets)
        set = rng.below(sets);

    std::uint64_t evictions = 0, dirty_evictions = 0, flushed_dirty = 0;
    for (int op = 0; op < 60'000; ++op) {
        std::uint64_t line;
        const auto kind = rng.below(10);
        if (kind < 7) {
            line = hot_sets[rng.below(hot_sets.size())] +
                   std::uint64_t{sets} * rng.below(2 * ways);
        } else if (kind < 9) {
            line = rng.below(std::uint64_t{4} * sets * ways);
        } else {
            line = rng.below(std::uint64_t{1} << 34);
        }
        const bool flag = rng.chance(0.3);
        const auto what = rng.below(20);
        if (what < 10) {
            ASSERT_EQ(cache.access(line, flag), ref.access(line, flag))
                << "access of line " << line << " at op " << op;
        } else if (what < 15) {
            const auto got = cache.insert(line, flag);
            const auto want = ref.insert(line, flag);
            ASSERT_EQ(got.valid, want.valid) << "insert at op " << op;
            ASSERT_EQ(got.dirty, want.dirty) << "insert at op " << op;
            ASSERT_EQ(got.line_addr, want.line_addr)
                << "insert at op " << op;
            evictions += got.valid;
            dirty_evictions += got.valid && got.dirty;
        } else if (what < 18) {
            const bool dirty = cache.flush(line);
            ASSERT_EQ(dirty, ref.flush(line)) << "flush at op " << op;
            flushed_dirty += dirty;
        } else {
            ASSERT_EQ(cache.contains(line), ref.contains(line))
                << "contains at op " << op;
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
    // The sequence must reach the paths it is meant to compare.
    EXPECT_GT(cache.hits(), 1'000u);
    EXPECT_GT(evictions, 1'000u);
    EXPECT_GT(dirty_evictions, 100u);
    EXPECT_GT(flushed_dirty, 100u);
}

TEST(CacheLevelDifferential, L1Geometry64Sets)
{
    for (std::uint64_t seed : {1, 2, 3})
        expectSameAsReference(64, 8, seed);
}

TEST(CacheLevelDifferential, PaperLlc4096Sets)
{
    for (std::uint64_t seed : {4, 5})
        expectSameAsReference(4096, 16, seed);
}

TEST(CacheLevelDifferential, LargeLlc6144Sets)
{
    for (std::uint64_t seed : {6, 7})
        expectSameAsReference(6144, 16, seed);
}

} // namespace
