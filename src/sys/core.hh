/**
 * @file
 * Trace-driven core model (the gem5 substitute, §5.1). Replays a trace
 * of (non-memory instruction count, memory access) records through a
 * private cache hierarchy with an instruction-window + MSHR limit, the
 * standard simplified out-of-order front-end used with DRAM simulators:
 * the core runs ahead up to `window` instructions past the oldest
 * outstanding load and sustains up to `mshrs` parallel misses.
 *
 * Cores loop their trace forever (to keep exerting pressure in multi-
 * programmed mixes) but record the tick at which they retire their
 * measurement budget; IPC over that budget feeds weighted speedup
 * (Fig. 13).
 */

#ifndef LEAKY_SYS_CORE_HH
#define LEAKY_SYS_CORE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sys/cache.hh"
#include "sys/port.hh"
#include "sys/prefetcher.hh"

namespace leaky::sys {

/** One trace record: compute burst followed by one memory access. */
struct TraceEntry {
    std::uint32_t non_mem_insts = 0;
    std::uint64_t addr = 0;
    bool is_write = false;
};

/** Core model parameters (paper Table 1: 4-wide OoO at 3 GHz). */
struct CoreConfig {
    double issue_ipc = 4.0;       ///< Peak instructions per cycle.
    double freq_ghz = 3.0;
    std::uint32_t window = 192;   ///< Max insts past oldest pending load.
    std::uint32_t mshrs = 16;     ///< Max outstanding memory reads.
    std::uint64_t inst_budget = 1'000'000; ///< Measurement length.
    bool enable_prefetcher = false;
    CacheHierarchyConfig caches = CacheHierarchyConfig::paperDefault();
};

/**
 * Trace-replaying core. Record i of the trace is read from the record
 * source the first time the core reaches it and kept, so after
 * `period` records the core loops over what it has already read. A
 * run that stops early never generates the records it did not reach.
 */
class TraceCore
{
  public:
    /** Yields the next trace record on each call. */
    using RecordSource = std::function<TraceEntry()>;

    TraceCore(MemoryPort &port, const CoreConfig &cfg, RecordSource source,
              std::size_t period, std::int32_t source_id);

    /** A core over records generated up front (period = trace size). */
    TraceCore(MemoryPort &port, const CoreConfig &cfg,
              std::vector<TraceEntry> trace, std::int32_t source_id);

    /** Begin execution at the current simulation time. */
    void start();

    /** Instructions retired so far. */
    std::uint64_t instsRetired() const { return insts_retired_; }

    /** True once the measurement budget has been retired. */
    bool budgetDone() const { return finish_tick_ != 0; }

    /** Tick at which the budget was retired (0 if not yet). */
    Tick finishTick() const { return finish_tick_; }

    /** Tick at which the core started executing. */
    Tick startTick() const { return start_tick_; }

    /** IPC over the measurement budget (valid once budgetDone()). */
    double measuredIpc() const;

    /** IPC of whatever has retired by @p now (for capped runs). */
    double ipcAt(Tick now) const;

    const CacheHierarchy &caches() const { return caches_; }
    std::uint64_t memReads() const { return mem_reads_; }
    std::uint64_t memWrites() const { return mem_writes_; }

  private:
    static constexpr std::uint32_t kNoMshr = ~std::uint32_t{0};
    /** A load in the instruction window. */
    struct Outstanding {
        std::uint64_t inst = 0;       ///< Index of the load instruction.
        std::uint32_t mshr = kNoMshr; ///< Fill it waits on (none: a hit).
    };
    /** A line fill in flight and the number of loads waiting on it;
     *  an entry with no waiters is free. The fill's closures carry
     *  only the entry's index, so they fit std::function's inline
     *  buffer and a read never allocates. */
    struct Mshr {
        std::uint64_t addr = 0; ///< Byte address of the missing load.
        std::uint32_t waiters = 0;
    };

    void dispatch();
    /** Send MSHR @p mshr's read to memory. */
    void issueFill(std::uint32_t mshr);
    /** Retire the @p i-th oldest outstanding load and dispatch on. */
    void completeLoad(std::size_t i);
    void onLoadHit(std::uint64_t inst_index);
    /** Install MSHR @p mshr's line and wake the loads waiting on it. */
    void onFill(std::uint32_t mshr);
    Outstanding &outstandingAt(std::size_t i);
    void retire(std::uint64_t insts);
    Tick instTicks(std::uint64_t insts) const;
    void issuePrefetch(std::uint64_t line_addr);

    MemoryPort &port_;
    CoreConfig cfg_;
    RecordSource next_record_;
    std::size_t period_;
    std::vector<TraceEntry> trace_; ///< Records read so far.
    std::int32_t source_;
    CacheHierarchy caches_;
    BestOffsetPrefetcher prefetcher_;
    double ticks_per_inst_; ///< Compute-burst ticks per instruction.

    std::size_t trace_pos_ = 0;
    std::uint64_t insts_dispatched_ = 0;
    std::uint64_t insts_retired_ = 0;
    Tick ready_time_ = 0;           ///< Core-local dispatch clock.
    /** Ring of outstanding loads (at most `mshrs`), oldest first. */
    std::vector<Outstanding> outstanding_;
    std::size_t outstanding_head_ = 0;
    std::size_t outstanding_count_ = 0;
    /** MSHR coalescing: one entry per line with a fill in flight. */
    std::vector<Mshr> mshrs_;
    sim::Event wake_; ///< Resumes dispatch() at the dispatch clock.
    Tick start_tick_ = 0;
    Tick finish_tick_ = 0;
    std::uint64_t mem_reads_ = 0;
    std::uint64_t mem_writes_ = 0;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_CORE_HH
