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
#include <memory>
#include <vector>

#include "ctrl/controller.hh"
#include "defense/factory.hh"
#include "dram/mapping.hh"
#include "sim/event_queue.hh"
#include "sys/port.hh"

namespace leaky::sys {

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
    /** Core/agent <-> controller latency each way (interconnect plus
     *  cache-miss handling outside the pure cache lookup). */
    Tick frontend_latency = 10'000;
    /** Delay before retrying a request rejected by a full queue. */
    Tick retry_interval = 20'000;

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

    /** Advance simulation by @p duration ticks. */
    void run(Tick duration);

    // MemoryPort
    Tick now() const override { return eq_.now(); }
    void schedule(Tick delay, std::function<void()> fn) override;
    void
    schedule(Tick delay, sim::Event &ev) override
    {
        eq_.scheduleAfter(ev, delay);
    }
    void issueRead(std::uint64_t phys_addr, std::int32_t source,
                   ReadCallback cb) override;
    void issueWrite(std::uint64_t phys_addr, std::int32_t source) override;
    const dram::MappingFunction &mapper() const override { return mapper_; }

  private:
    /**
     * Requests waiting for controller-queue space live in this
     * System-owned slab, not in their retry events. A full read queue
     * used to make every 20 us retry heap-allocate a spilled lambda
     * holding the whole Request (~100 bytes); now the Request is
     * stashed once and every dispatch attempt reuses the slot's
     * member-bound kernel Event — scheduling it stores only a
     * (context, thunk) pair, so a retry storm is allocation-free after
     * the first rejection and each retry's kernel round trip stays
     * within one cache line of the event slab. Slots are recycled
     * through a free list in LIFO order; a deque keeps their addresses
     * stable for the Events bound to them.
     */
    struct PendingSlot {
        sim::Event retry;   ///< Bound to dispatchPending(this slot).
        System *sys = nullptr;
        ctrl::Request req;
        std::uint32_t self = 0; ///< Own index (deque: no ptr diff).
        std::uint32_t next_free = kNoSlot;
    };
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    PendingSlot &stashRequest(ctrl::Request &&req);
    /** Try to hand the slot's request to its controller; keep
     *  retrying on a full queue. The slot is freed only once the
     *  enqueue lands. */
    void dispatchPending(PendingSlot &slot);

    /**
     * A read's requestor callback waits here, in a second free-listed
     * slab, rather than inside the controller's completion closure.
     * The closures then carry only (this, slot index) and fit the
     * inline buffers of std::function and the kernel's SmallFn, so a
     * read allocates nothing once the slabs have grown.
     */
    struct ReadSlot {
        ReadCallback cb;
        std::uint32_t next_free = kNoSlot;
    };

    /** Park @p cb in a free ReadSlot; @return the slot's index. */
    std::uint32_t parkCallback(ReadCallback &&cb);
    /** Free read slot @p slot and run its callback with @p done. */
    void deliverRead(std::uint32_t slot, Tick done);

    SystemConfig cfg_;
    sim::EventQueue eq_;
    dram::MappingFunction mapper_;
    std::vector<std::unique_ptr<ctrl::MemoryController>> ctrls_;
    std::vector<defense::DefenseBundle> bundles_;
    std::deque<PendingSlot> pending_;
    std::uint32_t pending_free_ = kNoSlot;
    std::vector<ReadSlot> reads_;
    std::uint32_t reads_free_ = kNoSlot;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_SYSTEM_HH
