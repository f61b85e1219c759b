#include "sys/prefetcher.hh"

#include <algorithm>

namespace leaky::sys {

namespace {

constexpr std::uint32_t kRrEntries = 64; ///< Recent-requests table size.
constexpr std::uint32_t kScoreMax = 31;  ///< Learning ends when a score hits.
constexpr std::uint32_t kRoundMax = 100; ///< ... or after this many rounds.
constexpr std::uint32_t kBadScore = 1;   ///< Below this, prefetch is disabled.

} // namespace

BestOffsetPrefetcher::BestOffsetPrefetcher()
    : rr_(kRrEntries, 0), rr_valid_(kRrEntries, false)
{
    // Michaud's offset list restricted to small strides; covers the
    // streaming and strided patterns our workload generators emit.
    for (int o : {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24,
                  27, 30, 32})
        offsets_.push_back(o);
    scores_.assign(offsets_.size(), 0);
}

bool
BestOffsetPrefetcher::rrContains(std::uint64_t line_addr) const
{
    for (std::size_t i = 0; i < rr_.size(); ++i) {
        if (rr_valid_[i] && rr_[i] == line_addr)
            return true;
    }
    return false;
}

void
BestOffsetPrefetcher::rrInsert(std::uint64_t line_addr)
{
    rr_[rr_pos_] = line_addr;
    rr_valid_[rr_pos_] = true;
    rr_pos_ = (rr_pos_ + 1) % rr_.size();
}

void
BestOffsetPrefetcher::learn(std::uint64_t line_addr)
{
    const int offset = offsets_[test_index_];
    if (line_addr >= static_cast<std::uint64_t>(offset) &&
        rrContains(line_addr - static_cast<std::uint64_t>(offset))) {
        scores_[test_index_] += 1;
        if (scores_[test_index_] >= kScoreMax) {
            best_offset_ = offset;
            active_ = true;
            std::fill(scores_.begin(), scores_.end(), 0);
            round_ = 0;
            test_index_ = 0;
            return;
        }
    }
    test_index_ += 1;
    if (test_index_ < offsets_.size())
        return;
    test_index_ = 0;
    round_ += 1;
    if (round_ < kRoundMax)
        return;
    // Learning phase over: adopt the best-scoring offset.
    const auto best = std::max_element(scores_.begin(), scores_.end());
    best_offset_ = offsets_[static_cast<std::size_t>(
        best - scores_.begin())];
    active_ = *best >= kBadScore;
    std::fill(scores_.begin(), scores_.end(), 0);
    round_ = 0;
}

std::optional<std::uint64_t>
BestOffsetPrefetcher::onDemandMiss(std::uint64_t line_addr)
{
    learn(line_addr);
    if (!active_)
        return std::nullopt;
    issued_ += 1;
    return line_addr + static_cast<std::uint64_t>(best_offset_);
}

void
BestOffsetPrefetcher::onFill(std::uint64_t line_addr)
{
    rrInsert(line_addr);
}

} // namespace leaky::sys
