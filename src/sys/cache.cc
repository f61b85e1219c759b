#include "sys/cache.hh"

#include "sim/logging.hh"

namespace leaky::sys {

CacheLevel::CacheLevel(const CacheLevelConfig &cfg) : cfg_(cfg)
{
    LEAKY_ASSERT(cfg.size_bytes % (cfg.ways * cfg.line_bytes) == 0,
                 "cache size not divisible into sets");
    sets_ = static_cast<std::uint32_t>(
        cfg.size_bytes / (static_cast<std::uint64_t>(cfg.ways) *
                          cfg.line_bytes));
    pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
    while (pow2_sets_ && (std::uint32_t{1} << set_shift_) < sets_)
        set_shift_ += 1;
    tags_.resize(static_cast<std::size_t>(sets_) * cfg.ways);
    stamps_.resize(tags_.size());
}

std::size_t
CacheLevel::setIndex(std::uint64_t line_addr) const
{
    return static_cast<std::size_t>(
        pow2_sets_ ? line_addr & (sets_ - 1) : line_addr % sets_);
}

std::uint32_t
CacheLevel::storedTag(std::uint64_t line_addr) const
{
    const std::uint64_t tag =
        pow2_sets_ ? line_addr >> set_shift_ : line_addr / sets_;
    LEAKY_ASSERT(tag < 0xffffffffu, "%s: line %llu has a tag wider than "
                 "32 bits", cfg_.name.c_str(),
                 static_cast<unsigned long long>(line_addr));
    return static_cast<std::uint32_t>(tag + 1);
}

bool
CacheLevel::access(std::uint64_t line_addr, bool is_write)
{
    const std::size_t base = setIndex(line_addr) * cfg_.ways;
    const std::uint32_t tag = storedTag(line_addr);
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == tag) {
            stamps_[i] = ++lru_clock_ | (stamps_[i] & kDirty) |
                         (is_write ? kDirty : 0);
            hits_ += 1;
            return true;
        }
    }
    misses_ += 1;
    return false;
}

CacheLevel::Eviction
CacheLevel::insert(std::uint64_t line_addr, bool dirty)
{
    const std::size_t set = setIndex(line_addr);
    const std::size_t base = set * cfg_.ways;
    const std::uint32_t tag = storedTag(line_addr);
    // One pass over the set. If the line is already present (e.g.,
    // refilled by another path), just refresh it. Otherwise the victim
    // is the first invalid way, else the least recently used one
    // (valid ways hold distinct stamps, so the minimum is unique).
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t invalid = kNone;
    std::size_t lru = kNone;
    std::uint64_t lru_stamp = ~std::uint64_t{0};
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == tag) {
            stamps_[i] = ++lru_clock_ | (stamps_[i] & kDirty) |
                         (dirty ? kDirty : 0);
            return {};
        }
        if (tags_[i] == 0) {
            if (invalid == kNone)
                invalid = i;
        } else if ((stamps_[i] & ~kDirty) < lru_stamp) {
            lru_stamp = stamps_[i] & ~kDirty;
            lru = i;
        }
    }
    const std::size_t victim = invalid != kNone ? invalid : lru;
    LEAKY_ASSERT(victim != kNone, "no victim way found");

    Eviction ev;
    if (tags_[victim] != 0) {
        ev.valid = true;
        ev.dirty = (stamps_[victim] & kDirty) != 0;
        ev.line_addr =
            static_cast<std::uint64_t>(tags_[victim] - 1) * sets_ + set;
    }
    tags_[victim] = tag;
    stamps_[victim] = ++lru_clock_ | (dirty ? kDirty : 0);
    return ev;
}

bool
CacheLevel::flush(std::uint64_t line_addr)
{
    const std::size_t base = setIndex(line_addr) * cfg_.ways;
    const std::uint32_t tag = storedTag(line_addr);
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == tag) {
            tags_[i] = 0;
            return (stamps_[i] & kDirty) != 0;
        }
    }
    return false;
}

bool
CacheLevel::contains(std::uint64_t line_addr) const
{
    const std::size_t base = setIndex(line_addr) * cfg_.ways;
    const std::uint32_t tag = storedTag(line_addr);
    for (std::size_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == tag)
            return true;
    }
    return false;
}

CacheHierarchyConfig
CacheHierarchyConfig::paperDefault()
{
    CacheHierarchyConfig cfg;
    cfg.levels.push_back({"L1", 32 * 1024, 8, 64, 1'400});
    cfg.levels.push_back({"LLC", 4ULL * 1024 * 1024, 16, 64, 11'000});
    return cfg;
}

CacheHierarchyConfig
CacheHierarchyConfig::largeHierarchy()
{
    CacheHierarchyConfig cfg;
    cfg.levels.push_back({"L1", 32 * 1024, 8, 64, 1'400});
    cfg.levels.push_back({"L2", 256 * 1024, 8, 64, 4'000});
    cfg.levels.push_back({"LLC", 6ULL * 1024 * 1024, 16, 64, 13'000});
    return cfg;
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &cfg)
{
    LEAKY_ASSERT(!cfg.levels.empty() && cfg.levels.size() <= kMaxLevels,
                 "hierarchy needs 1 to %zu levels", kMaxLevels);
    for (const auto &level : cfg.levels)
        levels_.emplace_back(level);
    const std::uint32_t line_bytes = cfg.levels.front().line_bytes;
    LEAKY_ASSERT(line_bytes != 0 && (line_bytes & (line_bytes - 1)) == 0,
                 "line size %u is not a power of two", line_bytes);
    while ((std::uint32_t{1} << line_shift_) < line_bytes)
        line_shift_ += 1;
}

std::uint64_t
CacheHierarchy::lineOf(std::uint64_t addr) const
{
    return addr >> line_shift_;
}

CacheHierarchy::Result
CacheHierarchy::access(std::uint64_t addr, bool is_write)
{
    Result result;
    const auto line = lineOf(addr);
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        result.latency += levels_[i].config().latency;
        if (levels_[i].access(line, is_write)) {
            result.hit = true;
            // Refill the levels above the hit.
            for (std::size_t j = 0; j < i; ++j) {
                const auto ev = levels_[j].insert(line, is_write);
                // As in fill(), a dirty victim is pushed one level
                // down and what that push evicts is dropped: store
                // fills install lines dirty at every level, so the
                // dropped line already has a dirty copy below.
                if (ev.valid && ev.dirty && j + 1 < levels_.size())
                    levels_[j + 1].insert(ev.line_addr, true);
            }
            return result;
        }
    }
    return result;
}

void
CacheHierarchy::fill(std::uint64_t addr, bool dirty, Result &result)
{
    const auto line = lineOf(addr);
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        const auto ev = levels_[i].insert(line, dirty);
        if (!ev.valid || !ev.dirty)
            continue;
        if (i + 1 < levels_.size()) {
            // Push the dirty victim one level down. What that push
            // evicts is dropped: store fills install lines dirty at
            // every level, so the dropped line already has a dirty
            // copy below. Only the last level writes back to memory.
            levels_[i + 1].insert(ev.line_addr, true);
        } else {
            result.writebacks.push_back(ev.line_addr << line_shift_);
        }
    }
}

bool
CacheHierarchy::flush(std::uint64_t addr)
{
    const auto line = lineOf(addr);
    bool dirty = false;
    for (auto &level : levels_)
        dirty = level.flush(line) || dirty;
    return dirty;
}

Tick
CacheHierarchy::missLatency() const
{
    Tick total = 0;
    for (const auto &level : levels_)
        total += level.config().latency;
    return total;
}

} // namespace leaky::sys
