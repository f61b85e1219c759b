#include "sys/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::sys {

CacheLevel::CacheLevel(const CacheLevelConfig &cfg) : cfg_(cfg)
{
    LEAKY_ASSERT(cfg.size_bytes % (cfg.ways * cfg.line_bytes) == 0,
                 "cache size not divisible into sets");
    sets_ = static_cast<std::uint32_t>(
        cfg.size_bytes / (static_cast<std::uint64_t>(cfg.ways) *
                          cfg.line_bytes));
    lines_.resize(static_cast<std::size_t>(sets_) * cfg.ways);
}

std::size_t
CacheLevel::setIndex(std::uint64_t line_addr) const
{
    return static_cast<std::size_t>(line_addr % sets_);
}

std::uint64_t
CacheLevel::tagOf(std::uint64_t line_addr) const
{
    return line_addr / sets_;
}

bool
CacheLevel::access(std::uint64_t line_addr, bool is_write)
{
    const auto set = setIndex(line_addr);
    const auto tag = tagOf(line_addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = lines_[set * cfg_.ways + w];
        if (line.valid() && line.tag == tag) {
            line.lru = ++lru_clock_ | (line.lru & kDirty) |
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
    const auto set = setIndex(line_addr);
    const auto tag = tagOf(line_addr);
    // If the line is already present (e.g., refilled by another path),
    // just refresh it.
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = lines_[set * cfg_.ways + w];
        if (line.valid() && line.tag == tag) {
            line.lru = ++lru_clock_ | (line.lru & kDirty) |
                       (dirty ? kDirty : 0);
            return {};
        }
    }
    // Victim: first invalid way, otherwise the least recently used.
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = lines_[set * cfg_.ways + w];
        if (!line.valid()) {
            victim = &line;
            break;
        }
        if (!victim || line.stamp() < victim->stamp())
            victim = &line;
    }
    LEAKY_ASSERT(victim != nullptr, "no victim way found");

    Eviction ev;
    if (victim->valid()) {
        ev.valid = true;
        ev.dirty = victim->dirty();
        ev.line_addr = victim->tag * sets_ + set;
    }
    victim->tag = tag;
    victim->lru = ++lru_clock_ | (dirty ? kDirty : 0);
    return ev;
}

bool
CacheLevel::flush(std::uint64_t line_addr)
{
    const auto set = setIndex(line_addr);
    const auto tag = tagOf(line_addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = lines_[set * cfg_.ways + w];
        if (line.valid() && line.tag == tag) {
            const bool dirty = line.dirty();
            line.lru = 0;
            return dirty;
        }
    }
    return false;
}

bool
CacheLevel::contains(std::uint64_t line_addr) const
{
    const auto set = setIndex(line_addr);
    const auto tag = tagOf(line_addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        const Line &line = lines_[set * cfg_.ways + w];
        if (line.valid() && line.tag == tag)
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
    LEAKY_ASSERT(!cfg.levels.empty(), "hierarchy needs >= 1 level");
    for (const auto &level : cfg.levels)
        levels_.emplace_back(level);
    line_bytes_ = cfg.levels.front().line_bytes;
}

std::uint64_t
CacheHierarchy::lineOf(std::uint64_t addr) const
{
    return addr / line_bytes_;
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
            // Refill upper levels (inclusive hierarchy).
            for (std::size_t j = 0; j < i; ++j) {
                const auto ev = levels_[j].insert(line, is_write);
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
            levels_[i + 1].insert(ev.line_addr, true);
        } else {
            result.writebacks.push_back(ev.line_addr * line_bytes_);
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
