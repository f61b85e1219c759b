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

System::InFlight &
System::issue(ctrl::Request &&req)
{
    if (!inflight_free_) {
        InFlight &fresh = inflight_.emplace_back();
        fresh.sys = this;
        fresh.dispatch.bind(&fresh, [](void *ctx) {
            auto *slot = static_cast<InFlight *>(ctx);
            slot->sys->dispatch(*slot);
        });
        fresh.complete.bind(&fresh, [](void *ctx) {
            auto *slot = static_cast<InFlight *>(ctx);
            slot->sys->complete(*slot);
        });
        inflight_free_ = &fresh;
    }
    InFlight &slot = *inflight_free_;
    inflight_free_ = slot.next_free;
    slot.req = std::move(req);
    eq_.scheduleAfter(slot.dispatch, kFrontendLatency);
    return slot;
}

void
System::release(InFlight &slot)
{
    slot.next_free = inflight_free_;
    inflight_free_ = &slot;
}

void
System::dispatch(InFlight &slot)
{
    auto &controller = *ctrls_[slot.req.addr.channel];
    if (controller.queueFull(slot.req.type)) {
        eq_.scheduleAfter(slot.dispatch, kRetryInterval);
        return;
    }
    const bool is_read = slot.req.type == ctrl::Request::Type::kRead;
    // enqueue() may run the controller's wake-up in place and advance
    // the clock: nothing after it may read the clock or schedule.
    const bool accepted = controller.enqueue(std::move(slot.req));
    LEAKY_ASSERT(accepted, "enqueue failed with queue space available");
    if (!is_read)
        release(slot);
}

void
System::complete(InFlight &slot)
{
    // Free the slot first: the sink may issue reads that reuse it or
    // grow the slab.
    ReadSink &sink = *slot.sink;
    const std::uint64_t tag = slot.tag;
    release(slot);
    sink.readDone(tag, eq_.now());
}

void
System::issueRead(std::uint64_t phys_addr, ReadSink &sink, std::uint64_t tag)
{
    ctrl::Request req;
    req.type = ctrl::Request::Type::kRead;
    req.phys_addr = phys_addr;
    req.addr = mapper_.decode(phys_addr);
    req.return_latency = kFrontendLatency;
    InFlight &slot = issue(std::move(req));
    slot.req.on_complete = &slot.complete;
    slot.sink = &sink;
    slot.tag = tag;
}

void
System::issueRead(std::uint64_t phys_addr, std::int32_t, ReadCallback cb)
{
    issueRead(phys_addr, parked_, parked_.park(std::move(cb)));
}

std::uint64_t
System::ParkedCallbacks::park(ReadCallback cb)
{
    if (free_ == kNone) {
        free_ = static_cast<std::uint32_t>(entries_.size());
        entries_.emplace_back();
    }
    const std::uint32_t tag = free_;
    Entry &entry = entries_[tag];
    free_ = entry.next_free;
    entry.cb = std::move(cb);
    return tag;
}

void
System::ParkedCallbacks::readDone(std::uint64_t tag, Tick done)
{
    // Unpark first: the callback may issue reads that reuse the entry
    // or grow the table.
    Entry &entry = entries_[tag];
    ReadCallback cb = std::move(entry.cb);
    entry.cb = nullptr;
    entry.next_free = free_;
    free_ = static_cast<std::uint32_t>(tag);
    cb(done);
}

void
System::issueWrite(std::uint64_t phys_addr, std::int32_t source)
{
    ctrl::Request req;
    req.type = ctrl::Request::Type::kWrite;
    req.phys_addr = phys_addr;
    req.addr = mapper_.decode(phys_addr);
    req.source = source;
    issue(std::move(req));
}

} // namespace leaky::sys
