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

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
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
    /** Recency stamp bit marking a dirty line; the low 63 bits order
     *  the set's ways for LRU. */
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 63;

    std::size_t setIndex(std::uint64_t line_addr) const;
    /** The tag as stored: tag + 1, so that 0 marks an invalid way. */
    std::uint32_t storedTag(std::uint64_t line_addr) const;

    CacheLevelConfig cfg_;
    std::uint32_t sets_;
    /** log2(sets_) when sets_ is a power of two (shift/mask indexing),
     *  0 otherwise (division). */
    std::uint32_t set_shift_ = 0;
    bool pow2_sets_ = false;
    /** Way w of set s is entry s * ways + w of both arrays. A probe
     *  compares only the dense 32-bit tags; the stamps are touched on
     *  a hit and when picking a victim. */
    std::vector<std::uint32_t> tags_;   ///< Stored tag, 0 when invalid.
    std::vector<std::uint64_t> stamps_; ///< LRU stamp | kDirty.
    std::uint64_t lru_clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Configuration of a full (1 to CacheHierarchy::kMaxLevels level)
 *  hierarchy. */
struct CacheHierarchyConfig {
    std::vector<CacheLevelConfig> levels;

    /** Paper Table 1: 32 kB L1 + 4 MB LLC (16-way). */
    static CacheHierarchyConfig paperDefault();

    /** §10.3 sensitivity: 32 kB L1 + 256 kB L2 + 6 MB LLC. */
    static CacheHierarchyConfig largeHierarchy();
};

/**
 * Multi-level hierarchy front-ending one requestor. A fill installs
 * the line at every level, and a store fill installs it dirty at every
 * level. The hierarchy is not inclusive: the LLC evicts without
 * back-invalidating L1 or L2, so an upper level may keep a line the
 * LLC has dropped.
 */
class CacheHierarchy
{
  public:
    static constexpr std::size_t kMaxLevels = 3;

    /**
     * Byte addresses of dirty lines pushed out to memory, stored
     * inline so a probe never allocates. A fill installs the line once
     * per level and each install sends at most one dirty line toward
     * memory, so kMaxLevels entries always suffice.
     */
    class Writebacks
    {
      public:
        void
        push_back(std::uint64_t addr)
        {
            LEAKY_ASSERT(size_ < kMaxLevels, "writeback list overflow");
            addrs_[size_++] = addr;
        }
        std::size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        std::uint64_t operator[](std::size_t i) const { return addrs_[i]; }
        const std::uint64_t *begin() const { return addrs_.data(); }
        const std::uint64_t *end() const { return addrs_.data() + size_; }

      private:
        std::array<std::uint64_t, kMaxLevels> addrs_{};
        std::size_t size_ = 0;
    };

    /** Outcome of a load/store probe. */
    struct Result {
        bool hit = false;
        Tick latency = 0; ///< Lookup latency (all probed levels).
        /** Dirty lines pushed out to memory by fills. */
        Writebacks writebacks;
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
    std::uint32_t line_shift_ = 0; ///< log2 of the line size.
};

} // namespace leaky::sys

#endif // LEAKY_SYS_CACHE_HH
