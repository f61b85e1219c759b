/**
 * @file
 * FR-FCFS request scheduler with a column-access cap (paper Table 1:
 * FR-FCFS with a column cap of 16). Row-buffer hits are prioritised over
 * older requests until a bank has served `cap` consecutive hits while an
 * older non-hit request waits for the same bank; then the older request
 * wins, bounding hit-streak starvation.
 */

#ifndef LEAKY_CTRL_SCHEDULER_HH
#define LEAKY_CTRL_SCHEDULER_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "ctrl/request.hh"
#include "dram/channel.hh"

namespace leaky::ctrl {

/** A queued request plus bookkeeping. */
struct QueueEntry {
    Request req;
    Tick arrival = 0;
    bool classified = false; ///< Hit/miss/conflict stat recorded yet?
};

/**
 * Controller request queue with compact scan mirrors, ordered by age:
 * entries are only appended and erase() keeps the order, so position 0
 * is the oldest entry and the position is the FCFS age. Entries carry
 * a ~130-byte Request (address, completion std::function, stats
 * fields), so an FR-FCFS scan over full entries touches two cache
 * lines per element. The queue therefore mirrors exactly the fields
 * the scan reads -- flat bank, row -- into packed side arrays kept in
 * lockstep with the entry storage: a 64-entry scan reads 512 bytes of
 * contiguous data instead of ~8 KiB of scattered entries. push()
 * annotates the address (fills the flat-index caches) so the mirrors
 * are always valid.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(const dram::Organization &org,
                          std::size_t reserve_depth = 0)
        : org_(&org)
    {
        entries_.reserve(reserve_depth);
        flat_bank_.reserve(reserve_depth);
        row_.reserve(reserve_depth);
    }

    void
    push(QueueEntry &&e)
    {
        org_->annotate(e.req.addr);
        flat_bank_.push_back(e.req.addr.flat_bank);
        row_.push_back(e.req.addr.row);
        entries_.push_back(std::move(e));
    }

    void
    erase(std::size_t idx)
    {
        entries_.erase(entries_.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        flat_bank_.erase(flat_bank_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
        row_.erase(row_.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    QueueEntry &operator[](std::size_t i) { return entries_[i]; }
    const QueueEntry &operator[](std::size_t i) const { return entries_[i]; }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    // Packed scan views, one element per entry (same index space).
    const std::uint32_t *flatBanks() const { return flat_bank_.data(); }
    const std::uint32_t *rows() const { return row_.data(); }

  private:
    const dram::Organization *org_;
    std::vector<QueueEntry> entries_;
    std::vector<std::uint32_t> flat_bank_;
    std::vector<std::uint32_t> row_;
};

/**
 * Predicate over banks the scheduler must not activate (pending RFM /
 * bank-level back-off). A plain (function pointer, context) pair so the
 * controller can pass it on every tick without constructing a
 * std::function; default-constructed means "nothing blocked".
 */
struct BankFilter {
    using Fn = bool (*)(const void *ctx, const Address &);

    Fn fn = nullptr;
    const void *ctx = nullptr;

    bool
    operator()(const Address &a) const
    {
        return fn != nullptr && fn(ctx, a);
    }
};

/** First DRAM command needed to serve a request given row-buffer state. */
dram::Command nextCommandFor(const Request &req, dram::RowStatus status);

/**
 * The scheduler's choice: which entry to serve and with which command.
 * Sixteen trivially copyable bytes, so pick() returns it in registers
 * and the controller keeps its last one as a plain member.
 */
struct SchedDecision {
    /** index of a decision that names no entry (nothing schedulable). */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::uint32_t index = kNone; ///< Index into the queue, or kNone.
    dram::Command cmd{};         ///< Next command for that request.
    Tick earliest = 0;           ///< When the command may issue.
};
static_assert(sizeof(SchedDecision) == 16 &&
                  std::is_trivially_copyable_v<SchedDecision>,
              "SchedDecision must stay 16 trivially copyable bytes");

/** Field-wise equality (the controller's kept-decision cross-check). */
inline bool
operator==(const SchedDecision &a, const SchedDecision &b)
{
    return a.index == b.index && a.cmd == b.cmd && a.earliest == b.earliest;
}

/**
 * FR-FCFS with a per-bank consecutive-row-hit cap. pick() is one
 * forward scan over the queue's age-ordered mirrors: the first row hit
 * that is not capped wins at once, else the oldest usable entry.
 */
class FrFcfsScheduler
{
  public:
    FrFcfsScheduler(const dram::Organization &org, std::uint32_t column_cap);

    /**
     * Pick the next (entry, command) from @p queue.
     *
     * @param queue Queue to schedule from.
     * @param chan Channel state (row-buffer status + timings).
     * @param blocked Predicate: true if the request's bank must not be
     *        scheduled (draining for RFM / bank-level back-off).
     * @param now Current tick.
     * @return Decision with the earliest issue tick (not before
     *         @p now, possibly in the future); its index is
     *         SchedDecision::kNone when the queue has no schedulable
     *         entry.
     */
    SchedDecision
    pick(const RequestQueue &queue, const dram::DramChannel &chan,
         const BankFilter &blocked, Tick now) const;

    /** Record that a command was issued for streak accounting. */
    void onIssue(const Address &addr, dram::Command cmd, bool was_hit);

    /** Reset all hit streaks (e.g., after refresh drains). */
    void resetStreaks();

  private:
    dram::Organization org_;
    std::uint32_t cap_;
    std::vector<std::uint32_t> hit_streak_; ///< Per flat bank.
};

} // namespace leaky::ctrl

#endif // LEAKY_CTRL_SCHEDULER_HH
