#include "ctrl/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace leaky::ctrl {

using dram::Command;
using dram::RowStatus;

FrFcfsScheduler::FrFcfsScheduler(const dram::Organization &org,
                                 std::uint32_t column_cap)
    : org_(org), cap_(column_cap), hit_streak_(org.totalBanks(), 0)
{
}

Command
nextCommandFor(const Request &req, RowStatus status)
{
    switch (status) {
      case RowStatus::kHit:
        return req.type == Request::Type::kRead ? Command::kRd
                                                : Command::kWr;
      case RowStatus::kEmpty:
        return Command::kAct;
      case RowStatus::kConflict:
        return Command::kPre;
    }
    sim::panic("bad row status");
}

SchedDecision
FrFcfsScheduler::pick(const RequestQueue &queue,
                      const dram::DramChannel &chan,
                      const BankFilter &blocked, Tick now) const
{
    // One forward scan in age order (queue position = age) over the
    // queue's packed (flat bank, row) mirrors against the channel's
    // packed open-row array; the full 130-byte entries stay cold until
    // a decision is made.
    //
    // A "blocked" bank (pending RFM / bank back-off) may still serve
    // column accesses to its open row -- only new activations must
    // wait, mirroring DDR5 RAA semantics where the open row remains
    // usable until the RFM is slotted in. So a hit is always usable and
    // a non-hit only when its bank is not blocked. BankFilter depends
    // on the flat bank alone, so one check per bank decides it exactly.
    const std::size_t n = queue.size();
    const std::int32_t *open_rows = chan.openRows();
    const std::uint32_t *fbs = queue.flatBanks();
    const std::uint32_t *rows = queue.rows();
    const bool any_blocked = blocked.fn != nullptr;

    std::size_t oldest = n; // Oldest usable entry, n = none yet.
    std::size_t choice = n;
    for (std::size_t i = 0; i < n; ++i) {
        const auto fb = fbs[i];
        if (open_rows[fb] != static_cast<std::int32_t>(rows[i])) {
            if (oldest == n &&
                !(any_blocked && blocked(queue[i].req.addr)))
                oldest = i;
            continue;
        }
        // The oldest row hit wins unless its bank has served `cap_`
        // consecutive hits while an older usable non-hit waits on the
        // same bank: an earlier entry on this bank with another row.
        if (hit_streak_[fb] >= cap_ &&
            !(any_blocked && blocked(queue[i].req.addr))) {
            bool older_nonhit = false;
            for (std::size_t j = i; j-- > 0;) {
                if (fbs[j] == fb && rows[j] != rows[i]) {
                    older_nonhit = true;
                    break;
                }
            }
            if (older_nonhit)
                continue; // That older non-hit already set `oldest`.
        }
        choice = i;
        break;
    }
    if (choice == n)
        choice = oldest;
    if (choice == n)
        return SchedDecision{};

    const auto &entry = queue[choice];
    SchedDecision d;
    d.index = static_cast<std::uint32_t>(choice);
    d.cmd = nextCommandFor(entry.req,
                           chan.rowStatusFlat(fbs[choice], rows[choice]));
    d.earliest = std::max(now, chan.earliestIssue(d.cmd, entry.req.addr));
    return d;
}

void
FrFcfsScheduler::onIssue(const Address &addr, dram::Command cmd,
                         bool was_hit)
{
    const auto fb = org_.flatOf(addr);
    if ((cmd == Command::kRd || cmd == Command::kWr) && was_hit) {
        hit_streak_[fb] += 1;
    } else if (cmd == Command::kAct) {
        hit_streak_[fb] = 0;
    }
}

void
FrFcfsScheduler::resetStreaks()
{
    std::fill(hit_streak_.begin(), hit_streak_.end(), 0);
}

} // namespace leaky::ctrl
