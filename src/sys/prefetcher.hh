/**
 * @file
 * Best-Offset hardware prefetcher (Michaud, HPCA'16), used by the §10.3
 * sensitivity study. Learns the stride ("offset") that would have made
 * recent demand misses timely by scoring candidate offsets against a
 * recent-requests table, then prefetches demand_line + best_offset.
 */

#ifndef LEAKY_SYS_PREFETCHER_HH
#define LEAKY_SYS_PREFETCHER_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace leaky::sys {

/** Per-core Best-Offset prefetch engine (operates on line addresses). */
class BestOffsetPrefetcher
{
  public:
    BestOffsetPrefetcher();

    /**
     * Observe a demand access that reached memory (miss) and return the
     * line address to prefetch, if prefetching is currently active.
     */
    std::optional<std::uint64_t> onDemandMiss(std::uint64_t line_addr);

    /** Observe a fill completing (trains the recent-requests table). */
    void onFill(std::uint64_t line_addr);

    int bestOffset() const { return best_offset_; }
    bool active() const { return active_; }
    std::uint64_t issued() const { return issued_; }

  private:
    void learn(std::uint64_t line_addr);
    bool rrContains(std::uint64_t line_addr) const;
    void rrInsert(std::uint64_t line_addr);

    std::vector<std::uint64_t> rr_;
    std::vector<bool> rr_valid_;
    std::size_t rr_pos_ = 0;

    std::vector<int> offsets_;
    std::vector<std::uint32_t> scores_;
    std::size_t test_index_ = 0;
    std::uint32_t round_ = 0;

    int best_offset_ = 1;
    bool active_ = true;
    std::uint64_t issued_ = 0;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_PREFETCHER_HH
