#include "replay.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/covert.hh"
#include "attack/message.hh"
#include "core/experiments.hh"
#include "ctrl/controller.hh"
#include "defense/factory.hh"
#include "dram/address_mapper.hh"
#include "dram/channel.hh"
#include "dram/mapping.hh"
#include "fuzz/campaign.hh"
#include "ml/ensemble.hh"
#include "sim/rng.hh"
#include "sys/cache.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"
#include "workload/website.hh"

namespace leaky::e2e {

namespace {

using defense::DefenseKind;
using sim::Tick;
using sys::TraceEntry;

// Slice sizes: every timed batch runs for milliseconds, far above the
// clock's resolution, and the whole replay takes a few seconds.
constexpr std::uint32_t kMixes = 2; ///< Four cores each: 8 app traces.
constexpr std::uint32_t kRecordsPerApp = 40'000; ///< As the Fig.-13 cores.
constexpr std::uint64_t kMixInsts = 100'000; ///< Fig. 13 default budget.
constexpr Tick kMixCap = 20 * sim::kMs;
constexpr std::uint32_t kWebsiteLoads = 4;
constexpr Tick kWebsiteDuration = 2 * sim::kMs;
constexpr int kMappingReps = 4;
constexpr std::size_t kCtrlRequests = 20'000;
constexpr std::size_t kCtrlOutstanding = 16;
constexpr Tick kCtrlCap = 100 * sim::kMs;
constexpr std::uint32_t kHammerActs = 100'000;
constexpr int kMaxRfmsPerAct = 8;
constexpr std::size_t kCovertBits = 32;
constexpr std::uint32_t kMlSites = 8;
constexpr std::uint32_t kMlLoads = 4;
constexpr int kPredictReps = 50;
constexpr std::uint32_t kNrh = 64; ///< The side-channel study's NRH (§8).
/** Checksums are reported as JSON numbers: keep them exact doubles. */
constexpr std::uint64_t kHashMask = (std::uint64_t{1} << 52) - 1;

/** Seed fan-out index of each replay input stream. */
enum Stream : std::uint64_t {
    kMixStream = 1,
    kWebStream = 2,
    kHammerStream = 3,
    kCtrlStream = 8,
    kDefenseStream = 16,
    kCovertStream = 32,
    kMlStream = 48
};

/** Metric-name suffix of a defense: its lower-cased display name. */
std::string
slug(DefenseKind kind)
{
    std::string name = defense::defenseName(kind);
    for (auto &c : name)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return name;
}

std::uint64_t
mixHash(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ value) * 0x100000001B3ULL;
}

/** Event-kernel counters summed over every System the replay drives. */
struct SimTotals {
    std::uint64_t events = 0;
    std::uint64_t heap = 0;
    std::uint64_t wheel = 0;
    std::uint64_t cascades = 0;
    std::uint64_t spills = 0;
    double sim_ns = 0.0;
    double wall_s = 0.0;

    void
    add(sys::System &system, double wall)
    {
        const auto &k = system.eventQueue().kernelStats();
        events += k.events_run;
        heap += k.heap_events;
        wheel += k.wheel_events;
        cascades += k.wheel_cascades;
        spills += k.one_shot_spills;
        sim_ns += static_cast<double>(system.now()) / sim::kNs;
        wall_s += wall;
    }
};

/** The generated inputs the later layers replay. */
struct Inputs {
    std::vector<std::vector<TraceEntry>> app_traces; ///< Per Fig.-13 core.
    std::vector<std::uint32_t> app_mlp;              ///< Per app trace.
    std::vector<std::vector<TraceEntry>> website_traces;
};

Inputs
replayWorkload(std::uint64_t seed, Report &report)
{
    const auto cfg = sys::SystemConfig::paper(DefenseKind::kNone);
    const dram::AddressMapper mapper(cfg.ctrl.dram.org, cfg.channels,
                                     cfg.mapping);
    Inputs in;
    std::uint64_t hash = 0;

    std::size_t records = 0;
    auto start = Clock::now();
    for (const auto &mix : workload::makeMixes(
             kMixes, 4, sim::seedFanout(seed, kMixStream))) {
        for (const auto &app : mix.apps) {
            in.app_traces.push_back(
                workload::generateTrace(app, mapper, kRecordsPerApp));
            in.app_mlp.push_back(app.mlp);
            records += in.app_traces.back().size();
        }
    }
    report.metric("workload.trace_records_per_s", "1/s",
                  ratio(static_cast<double>(records), secondsSince(start)));

    sim::Rng rng(sim::seedFanout(seed, kWebStream));
    const auto sites = workload::websiteNames().size();
    std::size_t web_records = 0;
    start = Clock::now();
    for (std::uint32_t load = 0; load < kWebsiteLoads; ++load) {
        workload::WebsiteTraceConfig web;
        web.site = static_cast<std::uint32_t>(rng.below(sites));
        web.load = load;
        web.duration = kWebsiteDuration;
        in.website_traces.push_back(
            workload::generateWebsiteTrace(web, mapper));
        web_records += in.website_traces.back().size();
    }
    report.metric("workload.website_records_per_s", "1/s",
                  ratio(static_cast<double>(web_records),
                        secondsSince(start)));

    for (const auto *traces : {&in.app_traces, &in.website_traces})
        for (const auto &trace : *traces)
            for (const auto &e : trace)
                hash = mixHash(hash, e.addr * 2 + e.is_write);
    report.count("workload.trace_records", static_cast<double>(records));
    report.count("workload.website_records",
                 static_cast<double>(web_records));
    report.count("workload.hash", static_cast<double>(hash & kHashMask));
    return in;
}

/** decodeLine/composeLine over the Fig.-13 trace lines, for the
 *  paper's preset and the most complex mapping-recovery XOR case.
 *  Returns the preset decode of every line. */
std::vector<dram::Address>
replayMapping(const Inputs &in, Report &report)
{
    const auto org = dram::DramConfig::ddr5Paper().org;
    const dram::MappingFunction preset(org, 1, dram::MappingSpec{});
    const dram::MappingFunction xor_fn(org, 1,
                                       core::recoveryMappings().back().spec);
    std::vector<std::uint64_t> lines;
    for (const auto &trace : in.app_traces)
        for (const auto &e : trace)
            lines.push_back((e.addr % preset.capacityBytes()) /
                            dram::MappingFunction::kLineBytes);
    const double calls =
        static_cast<double>(kMappingReps) * static_cast<double>(lines.size());

    std::vector<dram::Address> preset_decoded;
    for (const auto &[name, fn] :
         {std::pair<std::string, const dram::MappingFunction *>{"preset",
                                                                &preset},
          {"xor", &xor_fn}}) {
        std::vector<dram::Address> decoded(lines.size());
        auto start = Clock::now();
        for (int rep = 0; rep < kMappingReps; ++rep)
            for (std::size_t i = 0; i < lines.size(); ++i)
                decoded[i] = fn->decodeLine(lines[i]);
        report.metric("dram.decode_ns." + name, "ns",
                      1e9 * secondsSince(start) / calls);

        std::uint64_t sum = 0;
        start = Clock::now();
        for (int rep = 0; rep < kMappingReps; ++rep)
            for (const auto &addr : decoded)
                sum += fn->composeLine(addr);
        report.metric("dram.compose_ns." + name, "ns",
                      1e9 * secondsSince(start) / calls);

        std::size_t bad = 0;
        for (std::size_t i = 0; i < lines.size(); ++i)
            bad += fn->composeLine(decoded[i]) != lines[i];
        report.check("dram.round_trip." + name, bad == 0,
                     std::to_string(bad) + " lines did not round-trip");
        report.count("dram.compose_sum." + name,
                     static_cast<double>(sum & kHashMask));
        if (fn == &preset)
            preset_decoded = std::move(decoded);
    }
    return preset_decoded;
}

/** ACT / RD / PRE per decoded line through one DramChannel. */
void
replayDramCommands(std::vector<dram::Address> addrs, Report &report)
{
    dram::DramChannel chan(dram::DramConfig::ddr5Paper());
    for (auto &a : addrs)
        chan.config().org.annotate(a);
    Tick now = 0;
    const auto start = Clock::now();
    for (const auto &a : addrs) {
        now = std::max(now, chan.earliestIssue(dram::Command::kAct, a));
        chan.issue(dram::Command::kAct, a, now);
        now = std::max(now + 1, chan.earliestIssue(dram::Command::kRd, a));
        chan.issue(dram::Command::kRd, a, now);
        now = std::max(now + 1, chan.earliestIssue(dram::Command::kPre, a));
        chan.issue(dram::Command::kPre, a, now);
    }
    const double commands = 3.0 * static_cast<double>(addrs.size());
    report.metric("dram.cmd_ns", "ns",
                  1e9 * secondsSince(start) / commands);
    report.count("dram.commands", commands);
    report.count("dram.end_tick", static_cast<double>(now));
}

/** CacheHierarchy::access/fill over every app trace, one private
 *  hierarchy per trace as a TraceCore has; caches start empty. */
void
replayCaches(const Inputs &in, Report &report)
{
    const std::pair<std::string, sys::CacheHierarchyConfig> configs[] = {
        {"paper", sys::CacheHierarchyConfig::paperDefault()},
        {"large", sys::CacheHierarchyConfig::largeHierarchy()}};
    for (const auto &[name, cfg] : configs) {
        std::vector<sys::CacheHierarchy> caches(in.app_traces.size(),
                                                sys::CacheHierarchy(cfg));
        std::uint64_t accesses = 0, hits = 0, writebacks = 0;
        const auto start = Clock::now();
        for (std::size_t t = 0; t < in.app_traces.size(); ++t) {
            for (const auto &e : in.app_traces[t]) {
                auto result = caches[t].access(e.addr, e.is_write);
                if (!result.hit)
                    caches[t].fill(e.addr, e.is_write, result);
                hits += result.hit;
                writebacks += result.writebacks.size();
                accesses += 1;
            }
        }
        report.metric("sys.cache_access_ns." + name, "ns",
                      1e9 * secondsSince(start) /
                          static_cast<double>(accesses));
        if (name == "paper")
            report.metric("sys.cache_hit_frac", "frac",
                          ratio(static_cast<double>(hits),
                                static_cast<double>(accesses)));
        report.count("sys." + name + ".hits", static_cast<double>(hits));
        report.count("sys." + name + ".writebacks",
                     static_cast<double>(writebacks));
    }
}

/**
 * Closed-loop requestor: keeps up to kCtrlOutstanding reads in flight
 * and posts writes as the stream reaches them. Completion callbacks
 * hold `this`, so it must outlive every read it issued (done()).
 */
class ClosedLoop
{
  public:
    ClosedLoop(sys::System &system, const std::vector<TraceEntry> &stream)
        : system_(system), stream_(stream)
    {
    }
    ClosedLoop(const ClosedLoop &) = delete;
    ClosedLoop &operator=(const ClosedLoop &) = delete;

    void
    pump()
    {
        while (in_flight_ < kCtrlOutstanding && next_ < stream_.size()) {
            const TraceEntry &e = stream_[next_++];
            if (e.is_write) {
                system_.issueWrite(e.addr, 0);
                continue;
            }
            in_flight_ += 1;
            system_.issueRead(e.addr, 0, [this](Tick) {
                in_flight_ -= 1;
                pump();
            });
        }
    }

    bool
    done() const
    {
        return next_ == stream_.size() && in_flight_ == 0;
    }

  private:
    sys::System &system_;
    const std::vector<TraceEntry> &stream_;
    std::size_t next_ = 0;
    std::size_t in_flight_ = 0;
};

/** System::issueRead/issueWrite + run with one mix's interleaved
 *  traffic, against one defense of each action kind. */
void
replayController(const Inputs &in, std::uint64_t seed, SimTotals &sim,
                 Report &report)
{
    std::vector<TraceEntry> stream;
    for (std::size_t i = 0; stream.size() < kCtrlRequests; ++i)
        stream.push_back(in.app_traces[i % 4][i / 4]);

    ctrl::CtrlStats stats;
    double wall = 0.0;
    std::uint64_t k = 0;
    for (auto kind :
         {DefenseKind::kPrac, DefenseKind::kPrfm, DefenseKind::kHydra}) {
        auto cfg = sys::SystemConfig::paper(kind, kNrh);
        cfg.defense.seed = sim::seedFanout(seed, kCtrlStream + k++);
        sys::System system(cfg);
        ClosedLoop loop(system, stream);
        const auto start = Clock::now();
        loop.pump();
        while (!loop.done() && system.now() < kCtrlCap)
            system.run(100 * sim::kUs);
        const double elapsed = secondsSince(start);
        report.check("ctrl.drained." + slug(kind), loop.done(),
                     "requests still in flight at the simulation cap");
        stats += system.aggregateStats();
        sim.add(system, elapsed);
        wall += elapsed;
    }
    report.metric("ctrl.requests_per_s", "1/s",
                  ratio(static_cast<double>(k * stream.size()), wall));
    const std::pair<const char *, std::uint64_t> fields[] = {
        {"row_hits", stats.row_hits},
        {"row_misses", stats.row_misses},
        {"row_conflicts", stats.row_conflicts},
        {"refreshes", stats.refreshes},
        {"rfms", stats.rfms},
        {"backoffs", stats.backoffs},
        {"bank_backoffs", stats.bank_backoffs},
        {"targeted_refreshes", stats.targeted_refreshes},
        {"counter_fetches", stats.counter_fetches}};
    for (const auto &[name, value] : fields) {
        report.metric(std::string("ctrl.") + name, "count",
                      static_cast<double>(value));
        report.count(std::string("ctrl.") + name,
                     static_cast<double>(value));
    }
    report.count("ctrl.reads_served",
                 static_cast<double>(stats.reads_served));
    report.count("ctrl.read_latency_sum",
                 static_cast<double>(stats.read_latency_sum));
}

/** TraceCores on their own Systems: one browser load (the fingerprint
 *  input) and one four-core Fig.-13 mix (the mitigation input). */
void
replayTraceSystems(const Inputs &in, SimTotals &sim, Report &report)
{
    {
        sys::System system(sys::SystemConfig::paper(DefenseKind::kPrac,
                                                    kNrh));
        sys::CoreConfig core_cfg;
        core_cfg.inst_budget = ~std::uint64_t{0} >> 1;
        sys::TraceCore browser(system, core_cfg, in.website_traces.front(),
                               1);
        const auto start = Clock::now();
        browser.start();
        system.run(kWebsiteDuration);
        sim.add(system, secondsSince(start));
        report.count("sim.browser_insts",
                     static_cast<double>(browser.instsRetired()));
    }
    {
        auto cfg = sys::SystemConfig::paper(DefenseKind::kPrac, kNrh);
        cfg.defense.warm_counters = true;
        sys::System system(cfg);
        std::vector<std::unique_ptr<sys::TraceCore>> cores;
        for (std::int32_t c = 0; c < 4; ++c) {
            sys::CoreConfig core_cfg;
            core_cfg.inst_budget = kMixInsts;
            core_cfg.mshrs = in.app_mlp[c];
            cores.push_back(std::make_unique<sys::TraceCore>(
                system, core_cfg, in.app_traces[c], c));
        }
        const auto start = Clock::now();
        for (auto &core : cores)
            core->start();
        const auto all_done = [&cores] {
            return std::all_of(cores.begin(), cores.end(),
                               [](const auto &c) { return c->budgetDone(); });
        };
        while (!all_done() && system.now() < kMixCap)
            system.run(500 * sim::kUs);
        sim.add(system, secondsSince(start));
        std::uint64_t insts = 0;
        for (const auto &core : cores)
            insts += core->instsRetired();
        report.count("sim.mix_insts", static_cast<double>(insts));
    }
}

/** runCovertChannel in the cross-defense cell of each fuzzer defense. */
void
replayCovert(std::uint64_t seed, SimTotals &sim, Report &report)
{
    const auto symbols = attack::symbolsFromBits(
        attack::patternBits(attack::MessagePattern::kCheckered0, kCovertBits),
        2);
    std::uint64_t k = 0;
    for (auto kind : fuzz::campaignDefenses()) {
        auto cfg = core::crossDefenseSystemConfig(kind);
        cfg.defense.seed = sim::seedFanout(seed, kCovertStream + k++);
        sys::System system(cfg);
        const auto channel = core::crossDefenseChannelConfig(system, kind);
        const auto start = Clock::now();
        const auto result = attack::runCovertChannel(system, channel, symbols);
        const double wall = secondsSince(start);
        sim.add(system, wall);
        report.metric("attack.covert_sim_ns_per_s." + slug(kind), "ns/s",
                      ratio(static_cast<double>(system.now()) / sim::kNs,
                            wall));
        report.metric("attack.capacity_kbps." + slug(kind), "kbps",
                      result.capacity / 1e3);
        report.count("attack." + slug(kind) + ".capacity_bps",
                     result.capacity);
        report.count("attack." + slug(kind) + ".preventive_actions",
                     static_cast<double>(result.backoffs + result.rfms +
                                         result.targeted_refreshes));
    }
}

/** The alert pin of the hammer replay: remembers the pending alert. */
class PendingAlert final : public dram::AlertSink
{
  public:
    void
    raiseAlert(const dram::AlertInfo &info) override
    {
        info_ = info;
        pending_ = true;
    }

    bool
    take(dram::AlertInfo &out)
    {
        if (!pending_)
            return false;
        pending_ = false;
        out = info_;
        return true;
    }

  private:
    dram::AlertInfo info_;
    bool pending_ = false;
};

/** The back-off recovery RFMs a controller issues after an alert. */
void
serviceBackoff(dram::DeviceHooks &device, const dram::AlertInfo &alert,
               std::uint32_t rfms, const dram::Organization &org, Tick now)
{
    if (alert.bank_scoped) {
        for (std::uint32_t r = 0; r < rfms; ++r)
            device.onRfm(dram::Command::kRfmOneBank, alert.bank, true, now);
        return;
    }
    for (std::uint32_t rank = 0; rank < org.ranks; ++rank) {
        dram::Address target;
        target.rank = rank;
        org.annotate(target);
        for (std::uint32_t r = 0; r < rfms; ++r)
            device.onRfm(dram::Command::kRfmAll, target, true, now);
    }
}

/** Every defense's hooks, driven by a two-row hammer stream at tRC. */
void
replayDefenses(std::uint64_t seed, Report &report)
{
    const auto dram_cfg = dram::DramConfig::ddr5Paper();
    const auto &org = dram_cfg.org;
    const ctrl::CtrlConfig ctrl_cfg;
    sim::Rng rng(sim::seedFanout(seed, kHammerStream));
    dram::Address rows[2];
    rows[0].rank = static_cast<std::uint32_t>(rng.below(org.ranks));
    rows[0].bankgroup = static_cast<std::uint32_t>(rng.below(org.bankgroups));
    rows[0].bank = static_cast<std::uint32_t>(rng.below(org.banks_per_group));
    rows[0].row = static_cast<std::uint32_t>(rng.below(org.rows - 2));
    rows[1] = rows[0];
    rows[1].row = rows[0].row + 2; // The two aggressors of one victim.
    for (auto &a : rows)
        org.annotate(a);

    std::uint64_t k = 0;
    for (auto kind :
         {DefenseKind::kPrac, DefenseKind::kPracRiac, DefenseKind::kPracBank,
          DefenseKind::kPrfm, DefenseKind::kFrRfm, DefenseKind::kPara,
          DefenseKind::kGraphene, DefenseKind::kHydra}) {
        defense::DefenseSpec spec;
        spec.kind = kind;
        spec.nrh = kNrh;
        spec.seed = sim::seedFanout(seed, kDefenseStream + k++);
        PendingAlert sink;
        auto bundle = defense::makeDefense(spec, dram_cfg,
                                           ctrl_cfg.drain_lead, &sink);
        std::uint64_t actions = 0;
        Tick now = 0;
        const auto start = Clock::now();
        for (std::uint32_t i = 0; i < kHammerActs; ++i) {
            const dram::Address &addr = rows[i & 1];
            now += dram_cfg.timing.tRC;
            if (bundle.device) {
                bundle.device->onActivate(addr, now);
                bundle.device->onPrecharge(addr, now);
            }
            if (bundle.controller) {
                bundle.controller->onActivate(addr, now);
                for (int n = 0; n < kMaxRfmsPerAct; ++n) {
                    const auto req = bundle.controller->pendingRfm(now);
                    if (!req)
                        break;
                    const Tick at = std::max(now, req->scheduled_at);
                    bundle.controller->onRfmIssued(
                        *req, at, at + dram_cfg.timing.tRFM);
                    actions += 1;
                }
            }
            dram::AlertInfo alert;
            if (bundle.device && sink.take(alert)) {
                serviceBackoff(*bundle.device, alert,
                               bundle.rfms_per_backoff, org, now);
                actions += 1;
            }
        }
        report.metric("defense.hook_ns." + slug(kind), "ns",
                      1e9 * secondsSince(start) / kHammerActs);
        report.count("defense." + slug(kind) + ".actions",
                     static_cast<double>(actions));
    }
}

/** RandomForest::fit/predict on a fingerprintDataset of simulated
 *  loads, the model the fingerprint figure trains. */
void
replayMl(std::uint64_t seed, Report &report)
{
    core::FingerprintSpec spec;
    spec.sites = kMlSites;
    spec.loads_per_site = kMlLoads;
    spec.nrh = kNrh;
    spec.duration = sim::kMs;
    spec.seed = sim::seedFanout(seed, kMlStream);
    std::vector<core::FingerprintSample> raw;
    for (std::uint32_t site = 0; site < kMlSites; ++site)
        for (std::uint32_t load = 0; load < kMlLoads; ++load)
            raw.push_back(core::collectOneFingerprint(spec, site, load));
    const auto data = core::fingerprintDataset(raw);

    ml::RandomForest forest;
    auto start = Clock::now();
    forest.fit(data);
    report.metric("ml.forest_fit_s", "s", secondsSince(start));

    std::uint64_t correct = 0;
    start = Clock::now();
    for (int rep = 0; rep < kPredictReps; ++rep)
        for (std::size_t i = 0; i < data.size(); ++i)
            correct += forest.predict(data.x[i]) == data.y[i];
    report.metric("ml.predict_us", "us",
                  1e6 * secondsSince(start) /
                      (kPredictReps * static_cast<double>(data.size())));
    report.count("ml.train_correct",
                 static_cast<double>(correct / kPredictReps));
    std::uint64_t backoffs = 0;
    for (const auto &sample : raw)
        backoffs += sample.backoff_times.size();
    report.count("ml.backoffs", static_cast<double>(backoffs));
}

void
reportSim(const SimTotals &sim, Report &report)
{
    const auto events = static_cast<double>(sim.events);
    report.metric("sim.events_per_s", "1/s", ratio(events, sim.wall_s));
    report.metric("sim.sim_ns_per_s", "ns/s", ratio(sim.sim_ns, sim.wall_s));
    report.metric("sim.heap_frac", "frac",
                  ratio(static_cast<double>(sim.heap),
                        static_cast<double>(sim.heap + sim.wheel)));
    report.metric("sim.cascades_per_event", "count",
                  ratio(static_cast<double>(sim.cascades), events));
    report.metric("sim.one_shot_spills", "count",
                  static_cast<double>(sim.spills));
    report.count("sim.events", events);
    report.count("sim.heap_events", static_cast<double>(sim.heap));
    report.count("sim.wheel_events", static_cast<double>(sim.wheel));
    report.count("sim.cascades", static_cast<double>(sim.cascades));
    report.count("sim.spills", static_cast<double>(sim.spills));
    report.count("sim.sim_ns", sim.sim_ns);
}

} // namespace

void
runLayerReplay(std::uint64_t seed, Report &report)
{
    SimTotals sim;
    const Inputs in = replayWorkload(seed, report);
    replayDramCommands(replayMapping(in, report), report);
    replayCaches(in, report);
    replayController(in, seed, sim, report);
    replayTraceSystems(in, sim, report);
    replayCovert(seed, sim, report);
    reportSim(sim, report);
    replayDefenses(seed, report);
    replayMl(seed, report);
}

} // namespace leaky::e2e
