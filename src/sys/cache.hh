/**
 * @file
 * Set-associative, write-back, write-allocate cache hierarchy with LRU
 * replacement and clflush support. Functional model with fixed per-level
 * lookup latencies: the attacks flush their lines so almost always miss,
 * while background applications and the browser (website fingerprinting,
 * §8 and §10.3) get realistic filtering of their memory traffic.
 */

#ifndef LEAKY_SYS_CACHE_HH
#define LEAKY_SYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/tick.hh"

namespace leaky::sys {

using sim::Tick;

/** Geometry and latency of one cache level. */
struct CacheLevelConfig {
    std::string name = "L1";
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t line_bytes = 64;
    Tick latency = 1'400; ///< ~4 cycles at 3 GHz.
};

/** One set-associative cache level. */
class CacheLevel
{
  public:
    /** Result of inserting a line: the evicted victim, if any. */
    struct Eviction {
        bool valid = false;
        bool dirty = false;
        std::uint64_t line_addr = 0;
    };

    explicit CacheLevel(const CacheLevelConfig &cfg);

    /** Look up a line; updates LRU on hit and dirtiness on writes. */
    bool access(std::uint64_t line_addr, bool is_write);

    /** Insert a line (after a miss); returns the eviction victim. */
    Eviction insert(std::uint64_t line_addr, bool dirty);

    /** Invalidate a line; @return true if it was present and dirty. */
    bool flush(std::uint64_t line_addr);

    bool contains(std::uint64_t line_addr) const;

    const CacheLevelConfig &config() const { return cfg_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** 16 bytes: `lru` is the recency stamp in the low 63 bits, 0 for
     *  an invalid way, and the dirty flag in the top bit. */
    struct Line {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;

        bool valid() const { return lru != 0; }
        bool dirty() const { return (lru & kDirty) != 0; }
        std::uint64_t stamp() const { return lru & ~kDirty; }
    };
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 63;

    std::size_t setIndex(std::uint64_t line_addr) const;
    std::uint64_t tagOf(std::uint64_t line_addr) const;

    CacheLevelConfig cfg_;
    std::uint32_t sets_;
    std::vector<Line> lines_; ///< sets_ x ways, flattened.
    std::uint64_t lru_clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Configuration of a full (1-3 level) hierarchy. */
struct CacheHierarchyConfig {
    std::vector<CacheLevelConfig> levels;

    /** Paper Table 1: 32 kB L1 + 4 MB LLC (16-way). */
    static CacheHierarchyConfig paperDefault();

    /** §10.3 sensitivity: 32 kB L1 + 256 kB L2 + 6 MB LLC. */
    static CacheHierarchyConfig largeHierarchy();
};

/** Inclusive multi-level hierarchy front-ending one requestor. */
class CacheHierarchy
{
  public:
    /** Outcome of a load/store probe. */
    struct Result {
        bool hit = false;
        Tick latency = 0; ///< Lookup latency (all probed levels).
        /** Dirty lines pushed out to memory by fills. */
        std::vector<std::uint64_t> writebacks;
    };

    explicit CacheHierarchy(const CacheHierarchyConfig &cfg);

    /** Probe for a line; on a miss the caller fetches from memory and
     *  then calls fill(). */
    Result access(std::uint64_t addr, bool is_write);

    /** Install a line in all levels after a memory fetch. */
    void fill(std::uint64_t addr, bool dirty, Result &result);

    /** clflush: drop the line everywhere; @return true if a dirty copy
     *  must be written back. */
    bool flush(std::uint64_t addr);

    /** Total lookup latency of a full miss (all levels probed). */
    Tick missLatency() const;

    std::size_t numLevels() const { return levels_.size(); }
    const CacheLevel &level(std::size_t i) const { return levels_[i]; }

  private:
    std::uint64_t lineOf(std::uint64_t addr) const;

    std::vector<CacheLevel> levels_;
    std::uint32_t line_bytes_;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_CACHE_HH
