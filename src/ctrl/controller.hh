/**
 * @file
 * Per-channel memory controller. Implements the paper's evaluated
 * controller (Table 1): 64-entry read/write queues, FR-FCFS scheduling
 * with a column cap of 16, refresh postponing with back-to-back catch-up
 * REFs, plus the RowHammer-defense machinery the attacks target:
 *
 *  - the ABO back-off protocol (alert ~5 ns after PRE, tABOACT window of
 *    normal traffic, N back-to-back recovery RFMs blocking the channel);
 *  - bank-scoped back-offs for Bank-Level PRAC (§11.3);
 *  - controller-side RFM injection for PRFM (§7) and precisely
 *    scheduled, pattern-independent RFMs for FR-RFM (§11.1).
 */

#ifndef LEAKY_CTRL_CONTROLLER_HH
#define LEAKY_CTRL_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ctrl/defense_iface.hh"
#include "ctrl/refresh.hh"
#include "ctrl/request.hh"
#include "ctrl/scheduler.hh"
#include "dram/channel.hh"
#include "dram/hooks.hh"
#include "sim/event_queue.hh"

namespace leaky::ctrl {

/** Controller configuration on top of the DRAM config. */
struct CtrlConfig {
    dram::DramConfig dram;
    std::uint32_t read_queue_depth = 64;
    std::uint32_t write_queue_depth = 64;
    std::uint32_t column_cap = 16;
    std::uint32_t wq_drain_high = 48; ///< Start draining writes here.
    std::uint32_t wq_drain_low = 16;  ///< Stop draining writes here.
    std::uint32_t rfms_per_backoff = 4; ///< Paper §6.1 assumption.
    sim::Tick cmd_gap = 832;          ///< Min gap between commands (2 tCK).
    sim::Tick drain_lead = 80'000;    ///< Precise-RFM drain lead time.
    /** The controller only refreshes opportunistically (owed < max)
     *  after this much quiet time, so busy periods postpone REFs until
     *  two are owed and issued back-to-back (paper §6.2, footnote 3). */
    sim::Tick refresh_idle_threshold = 200'000;
    /**
     * When true (FR-RFM systems), periodic refreshes are also pinned to
     * the tREFI grid with a drain lead, so neither REF nor RFM timing
     * depends on the access pattern (§11.1 security argument).
     */
    bool deterministic_refresh = false;
};

/** Timeline event kinds exposed to listeners (attack ground truth). */
enum class PreventiveEvent : std::uint8_t {
    kRefresh,         ///< Periodic REF window.
    kBackoff,         ///< Channel-scope ABO recovery (PRAC).
    kBankBackoff,     ///< Bank-scope ABO recovery (Bank-Level PRAC).
    kRfm,             ///< Standalone RFM (PRFM / FR-RFM).
    kTargetedRefresh, ///< Victim-row refresh (Graphene / Hydra).
    kCounterFetch     ///< Hydra counter-cache fill traffic.
};

/** One memory channel's controller. */
class MemoryController final : public dram::AlertSink
{
  public:
    using Listener = std::function<void(PreventiveEvent, Tick start,
                                        Tick end, const Address &)>;

    MemoryController(sim::EventQueue &eq, const CtrlConfig &cfg,
                     std::uint32_t channel_id = 0);

    /** Install a controller-side defense (PRFM / FR-RFM); may be null. */
    void setControllerDefense(ControllerDefense *defense);

    /** Install device-side hooks (PRAC family); may be null. */
    void setDeviceHooks(dram::DeviceHooks *hooks);

    /** Observe preventive actions (tests, ground-truth traces). */
    void setListener(Listener listener) { listener_ = std::move(listener); }

    /**
     * Present a request. @return false when the matching queue is full
     * (the caller retries later; the request is left intact so it can
     * be re-presented without copying). Write completions fire
     * immediately (posted writes); read completions fire at data-burst
     * end.
     */
    bool enqueue(Request &&req);

    /** True when a request of @p type would be rejected right now.
     *  Inline so retry storms can poll without the full enqueue()
     *  call — enqueue() fails for exactly this condition. */
    bool
    queueFull(Request::Type type) const
    {
        return type == Request::Type::kRead
                   ? read_q_.size() >= cfg_.read_queue_depth
                   : write_q_.size() >= cfg_.write_queue_depth;
    }

    /** Convenience overload for lvalue requests (copies). */
    bool
    enqueue(const Request &req)
    {
        Request copy = req;
        return enqueue(std::move(copy));
    }

    dram::DramChannel &channel() { return chan_; }
    const dram::DramChannel &channel() const { return chan_; }
    const CtrlConfig &config() const { return cfg_; }
    const CtrlStats &stats() const { return stats_; }
    std::uint32_t channelId() const { return channel_id_; }

    std::size_t readQueueSize() const { return read_q_.size(); }
    std::size_t writeQueueSize() const { return write_q_.size(); }

    // dram::AlertSink
    void raiseAlert(const dram::AlertInfo &info) override;

  private:
    /** A bank-scoped RFM in flight (PRFM RFMsb / Bank-Level back-off). */
    struct BankTask {
        RfmRequest rfm;
        std::uint32_t remaining = 1; ///< RFM commands left to issue.
        Tick active_after = 0;       ///< Bank back-off: tABOACT window end.
        Tick start = 0;              ///< First RFM issue tick (0 = none).
        bool from_alert = false;     ///< Bank-Level PRAC (vs PRFM).
    };

    /**
     * A channel-wide preventive action that blocks request service:
     * precharge every rank, then issue `cmd` per_rank times on each
     * rank. Periodic REF, the PRAC back-off (ABO) and FR-RFM's
     * scheduled REF/RFM are all one record, stepped by progressDrain().
     */
    struct Drain {
        Command cmd = Command::kRef; ///< kRef or kRfmAll.
        Tick latency = 0;            ///< Latency override (0 = default).
        bool during_backoff = false; ///< ABO recovery RFMs.
        bool scheduled = false;      ///< FR-RFM / deterministic REF.
        Tick at = 0;                 ///< No REF/RFM before this tick.
        PreventiveEvent event = PreventiveEvent::kRefresh;
        Tick start = 0;              ///< Event start for listeners.
        Tick end = 0;                ///< Latest command end so far.
        std::uint32_t per_rank = 1;  ///< Commands each rank issues.
        std::uint32_t rounds = 1;    ///< REF rounds left, this one too.
        std::optional<RfmRequest> rfm; ///< Handed back to the defense.
    };

    void tick();
    void onAboDeadline();
    void scheduleWake(Tick when);
    bool tryIssueOne(Tick now);
    void startDrain(const Drain &drain);
    bool progressDrain(Tick now);
    bool progressBankTasks(Tick now);
    bool serveQueues(Tick now);
    void pollDefense(Tick now);
    void maybeStartAbo();
    const std::vector<Address> &taskBanks(const BankTask &task) const;
    bool bankBlocked(const Address &addr, Tick now) const;
    /** Scheduler filter for @p now; empty when no bank task is active. */
    BankFilter bankFilter(Tick now) const;
    static bool bankFilterThunk(const void *ctx, const Address &addr);
    Tick computeNextWake(Tick now);
    void issueAndAccount(dram::Command cmd, QueueEntry &entry, Tick now);
    RequestQueue &activeQueue();
    bool servingWrites();
    Address rankAddress(std::uint32_t rank) const;
    /** Count a finished preventive action in stats_, hand a defense
     *  request (if any) back to the defense, then notify the listener. */
    void finishPreventive(PreventiveEvent ev, Tick start, Tick end,
                          const Address &addr, const RfmRequest *rfm);

    sim::EventQueue &eq_;
    CtrlConfig cfg_;
    std::uint32_t channel_id_;
    dram::DramChannel chan_;
    FrFcfsScheduler sched_;
    RefreshManager refresh_;
    ControllerDefense *defense_;
    NullControllerDefense null_defense_;
    Listener listener_;

    RequestQueue read_q_;
    RequestQueue write_q_;
    bool draining_writes_ = false;

    /**
     * pick() result carried from serveQueues() to computeNextWake()
     * within one tick(). Valid only when serveQueues() ran this tick
     * and issued nothing: then neither the queues nor the bank state
     * changed, so the wake-up computation can reuse the decision
     * instead of re-scanning the queue. Cleared at every tick() entry.
     */
    std::optional<SchedDecision> idle_pick_;
    bool idle_pick_valid_ = false;

    Tick next_cmd_at_ = 0;
    Tick last_activity_ = 0;

    /** The drain in progress; none means normal request service. */
    std::optional<Drain> drain_;
    /** Commands left per rank in drain_ (sized once: never allocates). */
    std::vector<std::uint32_t> drain_left_;

    // Channel-scope ABO state.
    bool abo_pending_ = false;  ///< Deadline passed while another drain ran.
    Tick alert_at_ = 0;

    // Bank-scoped tasks (PRFM RFMsb, Bank-Level PRAC back-offs).
    std::vector<BankTask> bank_tasks_;

    Tick next_det_ref_ = 0; ///< Next deterministic REF (FR-RFM systems).

    /** Reusable self-clock event; rescheduled, never re-allocated. */
    sim::Event tick_event_;
    /** Reusable ABO-deadline timer (channel-scope alerts). */
    sim::Event abo_timer_;
    // Livelock detector: consecutive wake-ups at one tick without
    // issuing any command indicate a scheduling bug.
    Tick last_tick_at_ = sim::kTickMax;
    std::uint32_t stalled_ticks_ = 0;

    /** Scratch for taskBanks() (avoids per-call allocation). */
    mutable std::vector<Address> task_banks_scratch_;
    /** Tick the current bankFilter() was built for (thunk context). */
    mutable Tick filter_now_ = 0;

    CtrlStats stats_;
};

} // namespace leaky::ctrl

#endif // LEAKY_CTRL_CONTROLLER_HH
