#include "sys/system.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::sys {

SystemConfig
SystemConfig::paper(defense::DefenseKind kind, std::uint32_t nrh)
{
    SystemConfig cfg;
    cfg.ctrl.dram = dram::DramConfig::ddr5Paper();
    cfg.defense.kind = kind;
    cfg.defense.nrh = nrh;
    return cfg;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), mapper_(cfg.ctrl.dram.org, cfg.channels, cfg.mapping)
{
    for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
        // The controller config may be adjusted by the defense choice,
        // so resolve the bundle parameters first.
        ctrl::CtrlConfig ctrl_cfg = cfg_.ctrl;
        ctrl_cfg.rfms_per_backoff = cfg_.defense.rfms_per_backoff;
        ctrl_cfg.deterministic_refresh =
            ctrl_cfg.deterministic_refresh ||
            cfg_.defense.kind == defense::DefenseKind::kFrRfm;
        if (cfg_.defense.backoff_rfm_latency)
            ctrl_cfg.dram.timing.tRFM_backoff =
                cfg_.defense.backoff_rfm_latency;
        if (cfg_.defense.aboact_override)
            ctrl_cfg.dram.timing.tABOACT = cfg_.defense.aboact_override;

        auto controller = std::make_unique<ctrl::MemoryController>(
            eq_, ctrl_cfg, ch);
        defense::DefenseSpec spec = cfg_.defense;
        // Independent per-channel seed streams: an additive base + ch
        // collides across neighbouring sweep jobs (job N, ch 1 == job
        // N+1, ch 0), correlating defenses that must be independent.
        spec.seed = sim::seedFanout(cfg_.defense.seed, ch);
        auto bundle = defense::makeDefense(spec, ctrl_cfg.dram,
                                           ctrl_cfg.drain_lead,
                                           controller.get());
        if (bundle.device)
            controller->setDeviceHooks(bundle.device.get());
        if (bundle.controller)
            controller->setControllerDefense(bundle.controller.get());
        ctrls_.push_back(std::move(controller));
        bundles_.push_back(std::move(bundle));
    }
}

ctrl::MemoryController &
System::controller(std::uint32_t ch)
{
    LEAKY_ASSERT(ch < ctrls_.size(), "channel %u out of range", ch);
    return *ctrls_[ch];
}

const ctrl::CtrlStats &
System::stats(std::uint32_t ch) const
{
    LEAKY_ASSERT(ch < ctrls_.size(), "channel %u out of range", ch);
    return ctrls_[ch]->stats();
}

ctrl::CtrlStats
System::aggregateStats() const
{
    ctrl::CtrlStats sum;
    for (const auto &controller : ctrls_)
        sum += controller->stats();
    return sum;
}

const defense::DefenseBundle &
System::defenseBundle(std::uint32_t ch) const
{
    LEAKY_ASSERT(ch < bundles_.size(), "channel %u out of range", ch);
    return bundles_[ch];
}

void
System::setPreventiveListener(std::uint32_t ch,
                              ctrl::MemoryController::Listener listener)
{
    controller(ch).setListener(std::move(listener));
}

void
System::run(Tick duration)
{
    eq_.runUntil(eq_.now() + duration);
}

void
System::schedule(Tick delay, std::function<void()> fn)
{
    eq_.scheduleAfter(delay, std::move(fn));
}

System::PendingSlot &
System::stashRequest(ctrl::Request &&req)
{
    if (pending_free_ == kNoSlot) {
        pending_.emplace_back();
        PendingSlot &fresh = pending_.back();
        fresh.sys = this;
        fresh.retry.bind(&fresh, [](void *ctx) {
            auto *slot = static_cast<PendingSlot *>(ctx);
            slot->sys->dispatchPending(*slot);
        });
        fresh.self = static_cast<std::uint32_t>(pending_.size() - 1);
        fresh.next_free = kNoSlot;
        pending_free_ = fresh.self;
    }
    PendingSlot &slot = pending_[pending_free_];
    pending_free_ = slot.next_free;
    slot.req = std::move(req);
    return slot;
}

void
System::dispatchPending(PendingSlot &slot)
{
    auto &controller = *ctrls_[slot.req.addr.channel];
    if (controller.queueFull(slot.req.type)) {
        eq_.scheduleAfter(slot.retry, cfg_.retry_interval);
        return;
    }
    const bool accepted = controller.enqueue(std::move(slot.req));
    LEAKY_ASSERT(accepted, "enqueue failed with queue space available");
    slot.req = ctrl::Request{};
    slot.next_free = pending_free_;
    pending_free_ = slot.self;
}

std::uint32_t
System::parkCallback(ReadCallback &&cb)
{
    if (reads_free_ == kNoSlot) {
        reads_free_ = static_cast<std::uint32_t>(reads_.size());
        reads_.emplace_back();
    }
    const std::uint32_t slot = reads_free_;
    reads_free_ = reads_[slot].next_free;
    reads_[slot].cb = std::move(cb);
    return slot;
}

void
System::deliverRead(std::uint32_t slot, Tick done)
{
    // Move the callback out first: it may issue reads that reuse the
    // slot or grow the slab.
    ReadCallback cb = std::move(reads_[slot].cb);
    reads_[slot].cb = nullptr;
    reads_[slot].next_free = reads_free_;
    reads_free_ = slot;
    cb(done + cfg_.frontend_latency);
}

void
System::issueRead(std::uint64_t phys_addr, std::int32_t source,
                  ReadCallback cb)
{
    ctrl::Request req;
    req.type = ctrl::Request::Type::kRead;
    req.phys_addr = phys_addr;
    req.addr = mapper_.decode(phys_addr);
    req.source = source;
    const std::uint32_t id = parkCallback(std::move(cb));
    req.on_complete = [this, id](Tick done) {
        // Data still has to travel back to the requestor.
        const Tick back = done + cfg_.frontend_latency;
        eq_.schedule(back > eq_.now() ? back : eq_.now(),
                     [this, id, done] { deliverRead(id, done); });
    };
    PendingSlot &slot = stashRequest(std::move(req));
    eq_.scheduleAfter(slot.retry, cfg_.frontend_latency);
}

void
System::issueWrite(std::uint64_t phys_addr, std::int32_t source)
{
    ctrl::Request req;
    req.type = ctrl::Request::Type::kWrite;
    req.phys_addr = phys_addr;
    req.addr = mapper_.decode(phys_addr);
    req.source = source;
    PendingSlot &slot = stashRequest(std::move(req));
    eq_.scheduleAfter(slot.retry, cfg_.frontend_latency);
}

} // namespace leaky::sys
