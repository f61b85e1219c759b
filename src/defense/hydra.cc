#include "defense/hydra.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::defense {

using ctrl::Address;
using ctrl::PreventiveActionKind;
using ctrl::RfmRequest;
using dram::Command;
using sim::Tick;

namespace {

/** splitmix64 finalizer: cheap, well-mixed hash for table indexing. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint32_t
roundUpPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

HydraDefense::HydraDefense(const dram::DramConfig &dram_cfg,
                           const HydraConfig &cfg)
    : dram_cfg_(dram_cfg), cfg_(cfg),
      groups_per_bank_((dram_cfg.org.rows + cfg.rows_per_group - 1) /
                       cfg.rows_per_group),
      gct_(static_cast<std::size_t>(dram_cfg.org.totalBanks()) *
               groups_per_bank_,
           0),
      cc_sets_(roundUpPow2(
          std::max<std::uint32_t>(1, cfg.cc_entries / cfg.cc_ways))),
      cc_key_(static_cast<std::size_t>(cc_sets_) * cfg.cc_ways, kNoKey),
      cc_stamp_(cc_key_.size(), 0),
      shadow_key_(1024, kNoKey),
      shadow_count_(1024, 0)
{
    LEAKY_ASSERT(cfg_.row_threshold > cfg_.group_threshold,
                 "Hydra row threshold must exceed the group threshold");
    LEAKY_ASSERT(cfg_.rows_per_group > 0 && cfg_.cc_ways > 0,
                 "Hydra config must be positive");
}

std::uint64_t
HydraDefense::rowKey(std::uint32_t flat_bank, std::uint32_t row) const
{
    return static_cast<std::uint64_t>(flat_bank) * dram_cfg_.org.rows +
           row;
}

std::size_t
HydraDefense::groupIndex(std::uint32_t flat_bank, std::uint32_t row) const
{
    return static_cast<std::size_t>(flat_bank) * groups_per_bank_ +
           row / cfg_.rows_per_group;
}

bool
HydraDefense::cacheAccess(std::uint64_t key)
{
    const std::size_t set =
        static_cast<std::size_t>(mix(key) & (cc_sets_ - 1)) *
        cfg_.cc_ways;
    cc_clock_ += 1;

    std::size_t victim = set;
    for (std::size_t way = set; way < set + cfg_.cc_ways; ++way) {
        if (cc_key_[way] == key) {
            cc_stamp_[way] = cc_clock_;
            return true;
        }
        if (cc_stamp_[way] < cc_stamp_[victim])
            victim = way;
    }
    // Miss: evict the LRU way (an invalid way has stamp 0 and loses the
    // comparison, so empty ways fill first) and install the new line.
    cc_key_[victim] = key;
    cc_stamp_[victim] = cc_clock_;
    return false;
}

std::uint32_t &
HydraDefense::shadowCount(std::uint64_t key)
{
    if (shadow_used_ * 4 >= shadow_key_.size() * 3)
        growShadow();
    const std::size_t mask = shadow_key_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(mix(key)) & mask;
    while (shadow_key_[slot] != key) {
        if (shadow_key_[slot] == kNoKey) {
            shadow_key_[slot] = key;
            // Escalated rows start at the group threshold: the group
            // counter admits up to that many prior activations of any
            // one row, and Hydra must never under-count.
            shadow_count_[slot] = cfg_.group_threshold;
            shadow_used_ += 1;
            break;
        }
        slot = (slot + 1) & mask;
    }
    return shadow_count_[slot];
}

void
HydraDefense::growShadow()
{
    std::vector<std::uint64_t> keys(shadow_key_.size() * 2, kNoKey);
    std::vector<std::uint32_t> counts(keys.size(), 0);
    const std::size_t mask = keys.size() - 1;
    for (std::size_t i = 0; i < shadow_key_.size(); ++i) {
        if (shadow_key_[i] == kNoKey)
            continue;
        std::size_t slot =
            static_cast<std::size_t>(mix(shadow_key_[i])) & mask;
        while (keys[slot] != kNoKey)
            slot = (slot + 1) & mask;
        keys[slot] = shadow_key_[i];
        counts[slot] = shadow_count_[i];
    }
    shadow_key_.swap(keys);
    shadow_count_.swap(counts);
}

void
HydraDefense::maybeReset(Tick now)
{
    if (cfg_.reset_period == 0 || now < next_reset_)
        return;
    next_reset_ = now + cfg_.reset_period;
    std::fill(gct_.begin(), gct_.end(), 0);
    // The shadow keeps its capacity (no allocation, and a run's
    // working set recurs each window), but every count restarts.
    std::fill(shadow_key_.begin(), shadow_key_.end(), kNoKey);
    std::fill(shadow_count_.begin(), shadow_count_.end(), 0);
    shadow_used_ = 0;
    // Cached counter lines are stale once the RCT is wiped.
    std::fill(cc_key_.begin(), cc_key_.end(), kNoKey);
    std::fill(cc_stamp_.begin(), cc_stamp_.end(), 0);
}

void
HydraDefense::onActivate(const Address &addr, Tick now)
{
    maybeReset(now);
    const auto fb = dram_cfg_.org.flatOf(addr);
    auto &group = gct_[groupIndex(fb, addr.row)];
    if (group < cfg_.group_threshold) {
        // Level one: the whole group is provably cold; one shared
        // counter, no DRAM-resident state, no extra traffic.
        group += 1;
        return;
    }

    // Level two: per-row counting through the counter cache.
    const auto key = rowKey(fb, addr.row);
    if (cacheAccess(key)) {
        cc_hits_ += 1;
    } else {
        cc_misses_ += 1;
        // The counter line must be fetched from the RCT region of the
        // row's bank: a short bank-blocking window of real DRAM
        // traffic -- Hydra's second observable.
        RfmRequest fetch;
        fetch.kind = Command::kVrr;
        fetch.action = PreventiveActionKind::kCounterFetch;
        fetch.target = addr;
        fetch.target.row = dram_cfg_.org.rows - 1; // Reserved RCT rows.
        fetch.latency_override = kHydraFetchLatency;
        pending_.push(fetch);
    }

    auto &count = shadowCount(key);
    count += 1;
    if (count >= cfg_.row_threshold) {
        count = 0;
        RfmRequest vrr;
        vrr.kind = Command::kVrr;
        vrr.action = PreventiveActionKind::kVictimRefresh;
        vrr.target = addr;
        pending_.push(vrr);
    }
}

std::optional<RfmRequest>
HydraDefense::pendingRfm(Tick)
{
    if (pending_.empty())
        return std::nullopt;
    const RfmRequest req = pending_.pop();
    if (req.action == PreventiveActionKind::kVictimRefresh)
        vrrs_ += 1;
    return req;
}

void
HydraDefense::onRfmIssued(const RfmRequest &, Tick, Tick)
{
    // Counter state was already updated when the request was queued.
}

Tick
HydraDefense::nextEventTick(Tick) const
{
    // No timer. An activation does not wake the controller at its next
    // command slot, so a VRR or counter fetch queued by onActivate() waits
    // for the controller's next wake-up, and arrivals move that wake-up:
    // when it issues depends on the traffic around it. The figure goldens
    // pin this timing.
    return sim::kTickMax;
}

std::uint32_t
HydraDefense::groupCount(const Address &addr) const
{
    return gct_[groupIndex(dram_cfg_.org.flatOf(addr), addr.row)];
}

std::uint32_t
HydraDefense::rowCount(const Address &addr) const
{
    const auto key = rowKey(dram_cfg_.org.flatOf(addr), addr.row);
    const std::size_t mask = shadow_key_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(mix(key)) & mask;
    while (shadow_key_[slot] != kNoKey) {
        if (shadow_key_[slot] == key)
            return shadow_count_[slot];
        slot = (slot + 1) & mask;
    }
    return 0;
}

} // namespace leaky::defense
