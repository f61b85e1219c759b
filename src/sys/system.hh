/**
 * @file
 * Top-level simulated system: event queue + N memory channels (each with
 * its own controller and defense instance) + the address mapper, behind
 * the MemoryPort interface. This is the substrate equivalent of the
 * paper's gem5 + Ramulator 2.0 stack (§5.1, Table 1).
 */

#ifndef LEAKY_SYS_SYSTEM_HH
#define LEAKY_SYS_SYSTEM_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "ctrl/controller.hh"
#include "defense/factory.hh"
#include "dram/mapping.hh"
#include "sim/event_queue.hh"
#include "sys/port.hh"

namespace leaky::sys {

/** Core/agent <-> controller latency each way (interconnect plus
 *  cache-miss handling outside the pure cache lookup). */
inline constexpr Tick kFrontendLatency = 10'000;
/** Delay before retrying a request rejected by a full queue. */
inline constexpr Tick kRetryInterval = 20'000;

/** Whole-system configuration. */
struct SystemConfig {
    std::uint32_t channels = 1;
    /** Physical-to-DRAM mapping (§5.2 mapping diversity): a field
     *  order (a preset name or `order:` list) or XOR-function matrix. The mapped address
     *  space spans `channels` x the per-channel capacity regardless
     *  of the function chosen. */
    dram::MappingSpec mapping;
    ctrl::CtrlConfig ctrl;          ///< Per-channel controller + DRAM.
    /** Applied to every channel: each channel gets its OWN defense
     *  instance, seeded independently (splitmix64 fan-out of
     *  defense.seed), so preventive actions never cross channels. */
    defense::DefenseSpec defense;

    /** Paper Table 1 system with the given defense. Table 1 lists one
     *  channel; raising `channels` replicates the per-channel geometry
     *  (and the defense) N times, growing the mapper-visible address
     *  space N-fold — it never resizes the per-channel organisation. */
    static SystemConfig paper(defense::DefenseKind kind,
                              std::uint32_t nrh = 160);
};

/** The simulated machine. */
class System final : public MemoryPort
{
  public:
    explicit System(const SystemConfig &cfg);

    sim::EventQueue &eventQueue() { return eq_; }
    const SystemConfig &config() const { return cfg_; }

    ctrl::MemoryController &controller(std::uint32_t ch = 0);
    const defense::DefenseBundle &defenseBundle(std::uint32_t ch = 0) const;

    std::uint32_t channels() const { return cfg_.channels; }

    /** Channel-scoped stats view: the live counters of channel @p ch's
     *  controller (asserts the channel exists). Attack result
     *  collection goes through here with an EXPLICIT channel — never
     *  through an implicit controller(0). */
    const ctrl::CtrlStats &stats(std::uint32_t ch) const;

    /** Aggregate view: field-wise sum of every channel's stats. */
    ctrl::CtrlStats aggregateStats() const;

    /** Observe preventive actions on a channel (ground truth). */
    void setPreventiveListener(std::uint32_t ch,
                               ctrl::MemoryController::Listener listener);

    /** Advance simulation by @p duration ticks, or until a callback
     *  calls stop(). */
    void run(Tick duration);

    /** End the running run() once the calling callback returns, with
     *  the clock left at its tick (sim::EventQueue::stop()). */
    void stop() { eq_.stop(); }

    // MemoryPort
    Tick now() const override { return eq_.now(); }
    void schedule(Tick delay, std::function<void()> fn) override;
    void
    schedule(Tick delay, sim::Event &ev) override
    {
        eq_.reschedule(ev, eq_.now() + delay);
    }
    void issueRead(std::uint64_t phys_addr, ReadSink &sink,
                   std::uint64_t tag) override;
    void issueWrite(std::uint64_t phys_addr, std::int32_t source) override;
    const dram::MappingFunction &mapper() const override { return mapper_; }

    /** A read's completion as a callable, for the adapter below. */
    using ReadCallback = std::function<void(Tick data_ready)>;

    /**
     * The callback form of issueRead(), built on the sink path: @p cb
     * is parked in a free-listed table whose index is the read's tag,
     * and the table is the read's sink. The requestor id is dropped,
     * as on every read (nothing reads Request::source). Kept for
     * callers outside src/ that issue reads from a lambda (tests,
     * benches); every src/ requestor is a ReadSink.
     */
    void issueRead(std::uint64_t phys_addr, std::int32_t source,
                   ReadCallback cb);

  private:
    /**
     * One request from issue until the System is done with it: the
     * stashed Request (until the controller accepts it), the dispatch
     * event that presents it after the frontend hop and retries it
     * while the queue is full, and for reads the requestor's sink and
     * tag plus the completion event the controller schedules when the
     * data is back. Slots live in a free-listed, System-owned slab (a
     * deque keeps their addresses stable for the Events bound to them),
     * so once the slab has grown a read allocates nothing, and besides
     * the controller's own wake-ups it takes two events: arrival (plus
     * any retries) and return. A write's slot is released on
     * acceptance, a read's just before its sink is called.
     */
    struct InFlight {
        // What a retry touches comes first, so a retry storm over a
        // full queue reads as few lines per slot as it can.
        sim::Event dispatch; ///< Bound to dispatch(this slot).
        System *sys = nullptr;
        ctrl::Request req;
        sim::Event complete; ///< Bound to complete(this slot).
        ReadSink *sink = nullptr;
        std::uint64_t tag = 0;
        InFlight *next_free = nullptr;
    };

    /** Claim a slot for @p req and schedule its arrival at the
     *  controller one frontend hop from now. */
    InFlight &issue(ctrl::Request &&req);
    /** Hand the slot's request to its controller, or retry later on a
     *  full queue. */
    void dispatch(InFlight &slot);
    /** Data is back: free the slot and call its sink. */
    void complete(InFlight &slot);
    /** Return @p slot to the free list. */
    void release(InFlight &slot);

    /** The callback adapter's sink: parked callbacks, a read's tag
     *  indexing its entry. Entries are free-listed, so once the table
     *  has grown a callback read allocates only what its callable
     *  does. */
    class ParkedCallbacks final : public ReadSink
    {
      public:
        /** Park @p cb; returns the tag its read carries. */
        std::uint64_t park(ReadCallback cb);
        /** Unpark the tag's callback, then run it. */
        void readDone(std::uint64_t tag, Tick done) override;

      private:
        static constexpr std::uint32_t kNone = ~std::uint32_t{0};
        struct Entry {
            ReadCallback cb;
            std::uint32_t next_free = kNone;
        };
        std::vector<Entry> entries_;
        std::uint32_t free_ = kNone;
    };

    SystemConfig cfg_;
    sim::EventQueue eq_;
    dram::MappingFunction mapper_;
    std::vector<std::unique_ptr<ctrl::MemoryController>> ctrls_;
    std::vector<defense::DefenseBundle> bundles_;
    std::deque<InFlight> inflight_;
    InFlight *inflight_free_ = nullptr;
    ParkedCallbacks parked_;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_SYSTEM_HH
