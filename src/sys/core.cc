#include "sys/core.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace leaky::sys {

namespace {

constexpr double kIssueIpc = 4.0; ///< Peak instructions per cycle.
constexpr double kFreqGhz = 3.0;
/** Compute-burst ticks per instruction. */
constexpr double kTicksPerInst = 1000.0 / (kIssueIpc * kFreqGhz);
constexpr std::uint32_t kWindow = 192; ///< Max insts past oldest pending load.

} // namespace

TraceCore::TraceCore(MemoryPort &port, const CoreConfig &cfg,
                     RecordSource source, std::size_t period,
                     std::int32_t source_id)
    : port_(port), cfg_(cfg), next_record_(std::move(source)),
      period_(period), source_(source_id), caches_(cfg.caches),
      outstanding_(cfg.mshrs), mshrs_(cfg.mshrs),
      wake_(sim::memberEvent<&TraceCore::dispatch>(this))
{
    LEAKY_ASSERT(period_ > 0, "core %d has an empty trace", source_id);
    // The records read on demand never outgrow one period: reserve it
    // so reading them never reallocates.
    if (next_record_)
        trace_.reserve(period_);
}

TraceCore::TraceCore(MemoryPort &port, const CoreConfig &cfg,
                     std::vector<TraceEntry> trace, std::int32_t source_id)
    : TraceCore(port, cfg, nullptr, trace.size(), source_id)
{
    trace_ = std::move(trace);
}

Tick
TraceCore::instTicks(std::uint64_t insts) const
{
    return static_cast<Tick>(static_cast<double>(insts) * kTicksPerInst);
}

void
TraceCore::start()
{
    start_tick_ = port_.now();
    ready_time_ = start_tick_;
    dispatch();
}

void
TraceCore::retire(std::uint64_t insts)
{
    insts_retired_ += insts;
    if (finish_tick_ == 0 && insts_retired_ >= cfg_.inst_budget) {
        finish_tick_ = std::max<Tick>(port_.now(), ready_time_);
        if (const BudgetDoneFn fn = std::exchange(budget_done_, nullptr))
            fn(budget_done_ctx_);
    }
}

double
TraceCore::measuredIpc() const
{
    LEAKY_ASSERT(finish_tick_ > start_tick_, "IPC queried before finish");
    const double cycles = static_cast<double>(finish_tick_ - start_tick_) *
                          kFreqGhz / 1000.0;
    return static_cast<double>(cfg_.inst_budget) / cycles;
}

double
TraceCore::ipcAt(Tick now) const
{
    if (budgetDone())
        return measuredIpc();
    if (now <= start_tick_)
        return 0.0;
    const double cycles = static_cast<double>(now - start_tick_) *
                          kFreqGhz / 1000.0;
    const auto insts = std::min(insts_retired_, cfg_.inst_budget);
    return static_cast<double>(insts) / cycles;
}

void
TraceCore::issuePrefetch(std::uint64_t line_addr)
{
    const std::uint64_t addr = line_addr * 64;
    LEAKY_DCHECK((addr & kPrefetchTag) == 0, "prefetch address overflow");
    port_.issueRead(addr, *this, addr | kPrefetchTag);
}

void
TraceCore::onPrefetchFill(std::uint64_t addr)
{
    CacheHierarchy::Result result;
    caches_.fill(addr, false, result);
    for (auto wb : result.writebacks)
        port_.issueWrite(wb, source_);
    prefetcher_.onFill(addr / 64);
}

void
TraceCore::readDone(std::uint64_t tag, Tick)
{
    if (tag & kPrefetchTag)
        onPrefetchFill(tag & ~kPrefetchTag);
    else
        onFill(static_cast<std::uint32_t>(tag));
}

TraceCore::Outstanding &
TraceCore::outstandingAt(std::size_t i)
{
    // i <= outstanding_count_ <= mshrs, so one wrap suffices.
    std::size_t k = outstanding_head_ + i;
    if (k >= outstanding_.size())
        k -= outstanding_.size();
    return outstanding_[k];
}

void
TraceCore::completeLoad(std::size_t i)
{
    // Loads complete out of order: close the gap behind the oldest.
    if (i == 0) {
        if (++outstanding_head_ == outstanding_.size())
            outstanding_head_ = 0;
    } else {
        for (std::size_t k = i; k + 1 < outstanding_count_; ++k)
            outstandingAt(k) = outstandingAt(k + 1);
    }
    outstanding_count_ -= 1;
    retire(1);
    dispatch();
}

void
TraceCore::onLoadHit(std::uint64_t inst_index)
{
    std::size_t i = 0;
    while (i < outstanding_count_ && outstandingAt(i).inst != inst_index)
        i += 1;
    LEAKY_ASSERT(i < outstanding_count_, "unknown load completion");
    completeLoad(i);
}

void
TraceCore::issueFill(std::uint32_t mshr)
{
    port_.issueRead(mshrs_[mshr].addr, *this, mshr);
}

void
TraceCore::onFill(std::uint32_t mshr)
{
    const std::uint64_t addr = mshrs_[mshr].addr;
    CacheHierarchy::Result fill;
    caches_.fill(addr, false, fill);
    for (auto wb : fill.writebacks)
        port_.issueWrite(wb, source_);
    if (cfg_.enable_prefetcher)
        prefetcher_.onFill(addr / 64);

    // Free the MSHR before waking anyone: a load dispatched below that
    // misses on this line again starts a fill of its own. Such a load
    // may take this entry, but it queues behind every old waiter, so
    // the oldest load tagged with it is always an old waiter.
    std::uint32_t waiters = std::exchange(mshrs_[mshr].waiters, 0);
    for (; waiters > 0; --waiters) {
        std::size_t i = 0;
        while (i < outstanding_count_ && outstandingAt(i).mshr != mshr)
            i += 1;
        LEAKY_ASSERT(i < outstanding_count_, "unknown fill waiter");
        completeLoad(i);
    }
}

void
TraceCore::dispatch()
{
    const Tick now = port_.now();
    if (ready_time_ < now)
        ready_time_ = now;

    while (true) {
        // One event per trace record: once the dispatch clock moves past
        // "now", yield and resume via the bound wake-up event. It stays
        // pending until it fires, so dispatch() calls from load
        // completions do not schedule duplicates.
        if (ready_time_ > now) {
            if (!wake_.scheduled())
                port_.schedule(ready_time_ - now, wake_);
            return;
        }

        if (trace_pos_ == trace_.size())
            trace_.push_back(next_record_());
        const TraceEntry entry = trace_[trace_pos_];
        const std::uint64_t last_inst =
            insts_dispatched_ + entry.non_mem_insts + 1;

        // Instruction-window limit past the oldest outstanding load.
        if (outstanding_count_ > 0 &&
            last_inst - outstandingAt(0).inst > kWindow) {
            return; // Resumed by a load completion.
        }
        const bool is_load = !entry.is_write;
        if (is_load && outstanding_count_ >= cfg_.mshrs)
            return; // Resumed by a load completion.

        // Consume the compute burst.
        ready_time_ += instTicks(entry.non_mem_insts);
        retire(entry.non_mem_insts);

        if (is_load) {
            auto result = caches_.access(entry.addr, false);
            Outstanding &load = outstandingAt(outstanding_count_);
            outstanding_count_ += 1;
            load = {last_inst, kNoMshr};
            if (result.hit) {
                const Tick done = ready_time_ + result.latency;
                port_.schedule(done - now, [this, last_inst] {
                    onLoadHit(last_inst);
                });
            } else {
                const std::uint64_t addr = entry.addr;
                const std::uint64_t line = addr / 64;
                std::uint32_t free_mshr = kNoMshr;
                for (std::uint32_t m = 0; m < mshrs_.size(); ++m) {
                    if (mshrs_[m].waiters == 0) {
                        if (free_mshr == kNoMshr)
                            free_mshr = m;
                    } else if (mshrs_[m].addr / 64 == line) {
                        load.mshr = m; // Coalesce onto the fill.
                        break;
                    }
                }
                if (load.mshr != kNoMshr) {
                    mshrs_[load.mshr].waiters += 1;
                } else {
                    // Outstanding loads bound the busy MSHRs, and this
                    // load passed the MSHR limit, so one is free.
                    LEAKY_ASSERT(free_mshr != kNoMshr, "no free MSHR");
                    const std::uint32_t mshr = free_mshr;
                    mshrs_[mshr] = {addr, 1};
                    load.mshr = mshr;
                    mem_reads_ += 1;
                    const Tick issue_delay =
                        (ready_time_ - now) + result.latency;
                    port_.schedule(issue_delay,
                                   [this, mshr] { issueFill(mshr); });
                }
                if (cfg_.enable_prefetcher) {
                    if (auto pf = prefetcher_.onDemandMiss(addr / 64)) {
                        if (!caches_.access(*pf * 64, false).hit)
                            issuePrefetch(*pf);
                    }
                }
            }
        } else {
            // Store: write-allocate without a blocking fetch.
            auto result = caches_.access(entry.addr, true);
            if (!result.hit) {
                caches_.fill(entry.addr, true, result);
                mem_writes_ += 1;
            }
            for (auto wb : result.writebacks)
                port_.issueWrite(wb, source_);
            retire(1);
        }

        insts_dispatched_ = last_inst;
        if (++trace_pos_ == period_)
            trace_pos_ = 0;
    }
}

} // namespace leaky::sys
