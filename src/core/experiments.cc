#include "core/experiments.hh"

#include <algorithm>
#include <optional>

#include "attack/counter_leak.hh"
#include "attack/dram_addr.hh"
#include "sim/logging.hh"
#include "stats/channel_metrics.hh"

namespace leaky::core {

using attack::ChannelKind;
using defense::DefenseKind;

sys::SystemConfig
pracAttackSystem()
{
    sys::SystemConfig cfg = sys::SystemConfig::paper(DefenseKind::kPrac);
    cfg.defense.nbo_override = 128; // Paper §6.1 assumption.
    cfg.defense.rfms_per_backoff = 4;
    return cfg;
}

sys::SystemConfig
prfmAttackSystem()
{
    sys::SystemConfig cfg = sys::SystemConfig::paper(DefenseKind::kPrfm);
    cfg.defense.trfm_override = 40; // Paper §7.1 assumption.
    return cfg;
}

// ------------------------------------------------- the one builder

/** Generous ceiling on a measured agent: even the xor-far mapping
 *  recovery finishes in well under a simulated second, so a wedged
 *  agent fails loudly instead of spinning forever. */
constexpr Tick kAgentDeadline = 60'000 * sim::kMs;

Simulation::Simulation(const Environment &env,
                       const BankPlacement &noise_bank)
    : system(env.system)
{
    if (env.noise_sleep > 0) {
        attack::NoiseConfig noise_cfg;
        // Six rows: more counters than one back-off recovery can reset,
        // so noise-side counters survive preventive actions.
        noise_cfg.addrs = attack::rowsInBank(
            system.mapper(), noise_bank.channel, noise_bank.rank,
            noise_bank.bankgroup, noise_bank.bank, 3000, 6, 512);
        noise_cfg.sleep = env.noise_sleep;
        noise = std::make_unique<attack::NoiseAgent>(system, noise_cfg);
        noise->start();
    }

    sys::CoreConfig core_cfg;
    core_cfg.inst_budget =
        env.inst_budget ? env.inst_budget : ~std::uint64_t{0} >> 1;
    if (env.large_caches) {
        core_cfg.caches = sys::CacheHierarchyConfig::largeHierarchy();
        core_cfg.enable_prefetcher = true;
    }
    // Cores are numbered in start order. The browser keeps the default
    // MSHR count; an app gets its own MLP.
    if (env.browser)
        cores.push_back(std::make_unique<sys::TraceCore>(
            system, core_cfg,
            workload::generateWebsiteTrace(*env.browser, system.mapper()),
            0));
    for (const auto &app : env.background) {
        core_cfg.mshrs = app.mlp;
        cores.push_back(std::make_unique<sys::TraceCore>(
            system, core_cfg,
            [stream = workload::AppTraceStream(app, system.mapper())]()
                mutable { return stream.next(); },
            workload::kAppTracePeriod,
            static_cast<std::int32_t>(cores.size())));
    }
    for (const auto &core : cores)
        core->start();
}

bool
Simulation::runUntil(const std::function<bool()> &done, Tick slice,
                     Tick limit)
{
    const Tick end = system.now() + limit;
    while (!done() && system.now() < end)
        system.run(slice);
    return done();
}

void
Simulation::runAgent(const std::function<void(std::function<void()>)> &start)
{
    bool done = false;
    start([&done] { done = true; });
    const bool finished =
        runUntil([&done] { return done; }, sim::kMs, kAgentDeadline);
    LEAKY_ASSERT(finished, "measured agent missed its deadline");
}

// ------------------------------------------------------------- Fig. 2

LatencyTraceResult
runLatencyTrace(std::uint32_t iterations, std::uint32_t rfms_per_backoff)
{
    Environment env;
    env.system.defense.rfms_per_backoff = rfms_per_backoff;
    Simulation sim(env);
    sys::System &system = sim.system;

    attack::ProbeConfig probe_cfg;
    probe_cfg.channel = 0; // Single-channel system; keep it explicit.
    probe_cfg.addrs = {
        attack::rowAddress(system.mapper(), probe_cfg.channel, 0, 0, 0,
                           1000),
        attack::rowAddress(system.mapper(), probe_cfg.channel, 0, 0, 0,
                           2000)};
    probe_cfg.iterations = iterations;
    attack::LatencyProbe probe(system, probe_cfg);
    sim.runAgent([&probe](auto done) { probe.start(std::move(done)); });

    LatencyTraceResult result;
    result.samples = probe.samples();
    result.classifier = attack::LatencyClassifier::forTiming(
        env.system.ctrl.dram.timing, 90'000, rfms_per_backoff);
    result.stats = system.stats(probe_cfg.channel);

    double sums[3] = {0, 0, 0};
    std::uint64_t counts[3] = {0, 0, 0};
    for (const auto &sample : result.samples) {
        switch (result.classifier.classify(sample.latency)) {
          case attack::LatencyClass::kConflict:
            sums[0] += static_cast<double>(sample.latency);
            counts[0] += 1;
            break;
          case attack::LatencyClass::kRfm:
          case attack::LatencyClass::kRefresh:
            sums[1] += static_cast<double>(sample.latency);
            counts[1] += 1;
            break;
          case attack::LatencyClass::kBackoff:
            sums[2] += static_cast<double>(sample.latency);
            counts[2] += 1;
            break;
          default:
            break;
        }
    }
    result.mean_conflict_latency_ns =
        counts[0] ? sums[0] / static_cast<double>(counts[0]) / 1e3 : 0.0;
    result.mean_refresh_latency_ns =
        counts[1] ? sums[1] / static_cast<double>(counts[1]) / 1e3 : 0.0;
    result.mean_backoff_latency_ns =
        counts[2] ? sums[2] / static_cast<double>(counts[2]) / 1e3 : 0.0;
    return result;
}

// ------------------------------------------- covert-channel scenarios

namespace {

/** Pair @p p of @p scenario, configured for the live @p system. */
attack::CovertConfig
pairConfig(sys::System &system, const CovertScenario &scenario,
           std::size_t p)
{
    const BankPlacement &tx = scenario.pairs[p].sender;
    const BankPlacement &rx = scenario.pairs[p].receiver;
    attack::CovertConfig cfg = attack::makeChannelConfig(
        system, scenario.kind, scenario.levels, tx.channel);

    // The attacker massages its pages through the mapping it reverse
    // engineered (§5.2) — compose through the ASSUMED function, decode
    // through the system's own (the same composition path the
    // mapping-recovery attacker feeds its learned function into).
    const sys::SystemConfig &sys_cfg = system.config();
    std::optional<dram::MappingFunction> assumed;
    if (scenario.assumed_mapping)
        assumed.emplace(sys_cfg.ctrl.dram.org, sys_cfg.channels,
                        *scenario.assumed_mapping);
    const dram::MappingFunction &fn =
        assumed ? *assumed : system.mapper();
    cfg.sender_addr = attack::rowAddress(fn, tx.channel, tx.rank,
                                         tx.bankgroup, tx.bank, 1000);
    cfg.receiver_channel = rx.channel;
    cfg.receiver_addr = attack::rowAddress(fn, rx.channel, rx.rank,
                                           rx.bankgroup, rx.bank, 2000);
    if (!(rx == tx)) {
        // §9.1: a receiver outside the sender's bank sees none of the
        // sender's conflicts, so the sender alternates two of its own
        // rows and, under PRAC, charges the counters alone over a
        // doubled window.
        cfg.sender_addr2 = attack::rowAddress(
            fn, tx.channel, tx.rank, tx.bankgroup, tx.bank, 1064);
        if (scenario.kind == ChannelKind::kPrac)
            cfg.window = 50 * sim::kUs;
    }
    if (!scenario.sender_rows.empty()) {
        for (const std::uint32_t row : scenario.sender_rows)
            cfg.sender_sequence.push_back(attack::rowAddress(
                fn, tx.channel, tx.rank, tx.bankgroup, tx.bank, row));
        cfg.sender_addr = cfg.sender_sequence.front();
        cfg.sender_gaps = {scenario.sender_gap};
    }

    if (scenario.window)
        cfg.window = scenario.window;
    if (scenario.trecv)
        cfg.trecv = scenario.trecv;
    if (scenario.backoff_min)
        cfg.classifier.backoff_min = scenario.backoff_min;
    if (scenario.rfm_min)
        cfg.classifier.rfm_min = scenario.rfm_min;
    if (sys_cfg.ctrl.deterministic_refresh) {
        // Refreshes sit on the tREFI grid, so the receiver can blank
        // them out (paper footnote 6 and §10.1).
        const auto &timing =
            system.controller(tx.channel).config().dram.timing;
        cfg.refresh_blackout = true;
        cfg.refi = timing.tREFI;
        cfg.blackout_post = timing.tRFC + 300'000;
    }
    if (scenario.levels > 2)
        cfg.count_cuts = attack::calibrateCuts(sys_cfg, cfg);
    return cfg;
}

} // namespace

CovertScenario
channelScenario(ChannelKind kind)
{
    CovertScenario scenario;
    scenario.kind = kind;
    if (kind == ChannelKind::kRfm)
        scenario.system = prfmAttackSystem();
    return scenario;
}

CovertScenario
crossDefenseScenario(DefenseKind kind)
{
    CovertScenario scenario;
    if (kind == DefenseKind::kPrac || kind == DefenseKind::kPracRiac ||
        kind == DefenseKind::kPracBank) {
        scenario.system.defense.kind = kind;
        return scenario;
    }
    scenario.kind = ChannelKind::kRfm;
    // NRH = 160 matches the PRAC attack studies' threat level (the
    // trackers derive a targeted-refresh threshold of 80).
    scenario.system = kind == DefenseKind::kPrfm
                          ? prfmAttackSystem()
                          : sys::SystemConfig::paper(kind, 160);
    if (kind == DefenseKind::kGraphene || kind == DefenseKind::kHydra) {
        // The slow-event threshold sits at the VRR window (shorter
        // than a full RFM), keeping Hydra's sub-band counter fetches
        // out of the detection class.
        scenario.trecv = 2;
        scenario.rfm_min = 200'000;
    }
    return scenario;
}

sys::SystemConfig
crossDefenseSystemConfig(DefenseKind kind)
{
    return crossDefenseScenario(kind).system;
}

attack::CovertConfig
crossDefenseChannelConfig(sys::System &system, DefenseKind kind)
{
    return pairConfig(system, crossDefenseScenario(kind), 0);
}

ScenarioResult
runScenario(const CovertScenario &scenario)
{
    LEAKY_ASSERT(!scenario.pairs.empty(), "scenario has no pairs");
    LEAKY_ASSERT(!scenario.bits.empty(), "scenario has no payload");
    // Noise microbenchmark in pair 0's sender bank (§6.3).
    Simulation sim(scenario, scenario.pairs.front().sender);
    sys::System &system = sim.system;

    std::vector<attack::CovertConfig> pairs;
    for (std::size_t p = 0; p < scenario.pairs.size(); ++p)
        pairs.push_back(pairConfig(system, scenario, p));
    ScenarioResult out;
    out.pairs = attack::runCovertChannel(
        system, pairs,
        attack::symbolsFromBits(scenario.bits, scenario.levels));
    for (std::uint32_t ch = 0; ch < system.channels(); ++ch)
        out.channels.push_back(system.stats(ch));
    out.aggregate = system.aggregateStats();
    return out;
}

PatternSweepResult
runPatternSweep(CovertScenario scenario, std::size_t n_bits)
{
    const attack::MessagePattern patterns[] = {
        attack::MessagePattern::kAllOnes,
        attack::MessagePattern::kAllZeros,
        attack::MessagePattern::kCheckered0,
        attack::MessagePattern::kCheckered1};
    PatternSweepResult result;
    for (auto p : patterns) {
        scenario.bits = attack::patternBits(p, n_bits);
        const auto run = runScenario(scenario).pairs.front();
        result.raw_bit_rate += run.raw_bit_rate / 4.0;
        result.error_probability += run.symbol_error / 4.0;
        result.capacity += run.capacity / 4.0;
    }
    return result;
}

// ------------------------------------------------------- Figs. 9/10, T2

FingerprintSample
collectOneFingerprint(const FingerprintSpec &spec, std::uint32_t site,
                      std::uint32_t load)
{
    Environment env;
    env.system = sys::SystemConfig::paper(DefenseKind::kPrac, spec.nrh);
    // The victim browser.
    env.browser = workload::WebsiteTraceConfig{site, load, spec.seed,
                                               spec.duration};
    env.large_caches = spec.large_caches;
    Simulation sim(env);
    sys::System &system = sim.system;
    const auto nbo = defense::nboFor(spec.nrh);

    // The attacker's probe, placed away from the browser's rows;
    // back-offs are channel-wide so colocation within the victim's
    // CHANNEL suffices (§8) — the channel is explicit here because a
    // probe on any other channel would observe nothing.
    attack::FingerprintConfig probe_cfg;
    probe_cfg.channel = 0;
    probe_cfg.rows = attack::rowsInBank(
        system.mapper(), probe_cfg.channel,
        system.mapper().org().ranks - 1,
        system.mapper().org().bankgroups - 1,
        system.mapper().org().banks_per_group - 1, 500, 8, 64);
    probe_cfg.t_accesses = nbo > 1 ? nbo - 1 : 1;
    probe_cfg.duration = spec.duration;
    probe_cfg.classifier =
        attack::LatencyClassifier::forTiming(env.system.ctrl.dram.timing);
    attack::FingerprintProbe probe(system, probe_cfg);
    sim.runAgent([&probe](auto done) { probe.start(std::move(done)); });

    FingerprintSample sample;
    sample.site = site;
    sample.load = load;
    sample.backoff_times = probe.backoffTimes();
    sample.duration = spec.duration;
    return sample;
}

std::vector<FingerprintSample>
collectFingerprints(const FingerprintSpec &spec)
{
    std::vector<FingerprintSample> samples;
    samples.reserve(static_cast<std::size_t>(spec.sites) *
                    spec.loads_per_site);
    for (std::uint32_t site = 0; site < spec.sites; ++site) {
        for (std::uint32_t load = 0; load < spec.loads_per_site; ++load)
            samples.push_back(collectOneFingerprint(spec, site, load));
    }
    return samples;
}

ml::Dataset
fingerprintDataset(const std::vector<FingerprintSample> &raw,
                   std::uint32_t windows)
{
    ml::Dataset data;
    for (const auto &sample : raw) {
        auto features = attack::extractFeatures(
            sample.backoff_times, sample.duration, windows);
        data.add(std::move(features.values),
                 static_cast<int>(sample.site));
    }
    return data;
}

// ---------------------------------------------------------------- §9.1

CounterLeakTrial
runCounterLeakTrial(std::uint32_t secret)
{
    const Environment env; // The PRAC attack system, nothing beside.
    Simulation sim(env);
    sys::System &system = sim.system;

    attack::CounterLeakConfig leak_cfg;
    leak_cfg.channel = 0; // Single-channel system; keep it explicit.
    const auto shared = attack::rowAddress(system.mapper(),
                                           leak_cfg.channel, 0, 0, 0,
                                           1000);
    const auto victim_conflict = attack::rowAddress(
        system.mapper(), leak_cfg.channel, 0, 0, 0, 2000);
    const auto attacker_conflict = attack::rowAddress(
        system.mapper(), leak_cfg.channel, 0, 0, 0, 3000);

    leak_cfg.shared_addr = shared;
    leak_cfg.conflict_addr = attacker_conflict;
    leak_cfg.nbo = 128;
    leak_cfg.classifier =
        attack::LatencyClassifier::forTiming(env.system.ctrl.dram.timing);

    attack::CounterLeakVictim victim(system, shared, victim_conflict);
    attack::CounterLeakAttacker attacker(system, leak_cfg);

    attack::CounterLeakResult result;
    sim.runAgent([&](auto done) {
        victim.prime(secret, [&, done = std::move(done)] {
            attacker.leak([&, done](const attack::CounterLeakResult &r) {
                result = r;
                done();
            });
        });
    });

    CounterLeakTrial trial;
    trial.secret = secret;
    trial.leaked = result.leaked_count;
    trial.elapsed_us = static_cast<double>(result.elapsed) / 1e6;
    trial.bits = result.bits;
    return trial;
}

// ------------------------------- online mapping recovery (ROADMAP 2)

namespace {

/** Fold one extra physical-bit tap into the LSB mask of @p field —
 *  an elementary GF(2) row operation, so the result stays invertible
 *  as long as each fold taps a bit owned by a DIFFERENT output row. */
void
foldTap(std::array<std::vector<std::uint64_t>, dram::kNumFields> &masks,
        dram::Field field, std::uint32_t phys_bit)
{
    auto &field_masks = masks[static_cast<std::size_t>(field)];
    LEAKY_ASSERT(!field_masks.empty(), "cannot fold into a zero-width "
                                       "field");
    field_masks[0] ^= std::uint64_t{1} << phys_bit;
}

} // namespace

std::vector<RecoveryMappingCase>
recoveryMappings()
{
    std::vector<RecoveryMappingCase> out;
    for (const std::string &name : dram::mappingPresets())
        out.push_back({name, 0, dram::MappingSpec::parse(name)});

    // XOR variants: row-interleaved's explicit matrix with row bits
    // folded into bank-set masks at increasing heights. Under the
    // paper geometry the line bits are col 6-12, bg 13-15, ba 16-17,
    // ra 18, row 19-35 (physical); folding physical bits 24 / 28 / 34
    // into bg0 / ba0 / ra forces the attacker's difference window
    // past 16 / 22 / 26 line bits respectively — one more adaptive
    // round per fold.
    const sys::SystemConfig base_cfg =
        sys::SystemConfig::paper(DefenseKind::kNone);
    auto masks = dram::MappingFunction(base_cfg.ctrl.dram.org,
                                       base_cfg.channels, base_cfg.mapping)
                     .masks();

    foldTap(masks, dram::Field::kBankGroup, 24);
    out.push_back({"xor-near", 1, dram::MappingSpec::fromMasks(masks)});
    foldTap(masks, dram::Field::kBank, 28);
    out.push_back({"xor-mid", 2, dram::MappingSpec::fromMasks(masks)});
    foldTap(masks, dram::Field::kRank, 34);
    out.push_back({"xor-far", 3, dram::MappingSpec::fromMasks(masks)});
    return out;
}

MappingRecoveryCellResult
runMappingRecoveryCell(const dram::MappingSpec &mapping,
                       DefenseKind defense, std::uint64_t seed)
{
    Environment env;
    env.system = sys::SystemConfig::paper(defense, 160);
    env.system.mapping = mapping;
    Simulation sim(env);
    sys::System &system = sim.system;

    attack::MappingRecoveryConfig cfg;
    cfg.classifier = attack::LatencyClassifier::forTiming(
        env.system.ctrl.dram.timing);
    cfg.pairs_per_round = 192;
    cfg.seed = seed;
    attack::MappingRecovery attacker(system, cfg);
    sim.runAgent([&attacker](auto done) { attacker.start(std::move(done)); });

    MappingRecoveryCellResult out;
    out.recovered = attacker.result();

    // Grade against the system mapper's ground truth. Bank functions
    // must match as a SPAN (any basis of the same space predicts the
    // same conflicts); row functions only modulo bank functions, so
    // the joint bank+row span is the identifiable object.
    const auto true_masks = system.mapper().masks();
    dram::gf2::BitBasis true_bank;
    for (dram::Field f :
         {dram::Field::kChannel, dram::Field::kRank,
          dram::Field::kBankGroup, dram::Field::kBank})
        for (std::uint64_t m : true_masks[static_cast<std::size_t>(f)])
            true_bank.insert(m);
    dram::gf2::BitBasis got_bank;
    for (std::uint64_t m : out.recovered.bank_masks)
        got_bank.insert(m);
    out.bank_match =
        out.recovered.bank_solved && got_bank.sameSpan(true_bank);

    dram::gf2::BitBasis true_joint = true_bank;
    for (std::uint64_t m :
         true_masks[static_cast<std::size_t>(dram::Field::kRow)])
        true_joint.insert(m);
    dram::gf2::BitBasis got_joint = got_bank;
    for (std::uint64_t m : out.recovered.row_masks)
        got_joint.insert(m);
    out.row_match =
        out.recovered.row_solved && got_joint.sameSpan(true_joint);
    return out;
}

// ------------------------------------------------------------- Fig. 13

namespace {

constexpr Tick kPerfRunCap = 80 * sim::kMs;

/** IPC of each app of @p apps, sharing one @p system, once all of
 *  them retire @p insts_per_core or the cap elapses. */
std::vector<double>
appIpcs(const sys::SystemConfig &system,
        const std::vector<workload::AppSpec> &apps,
        std::uint64_t insts_per_core)
{
    Environment env;
    env.system = system;
    env.background = apps;
    env.inst_budget = insts_per_core;
    Simulation sim(env);
    const auto &cores = sim.cores;
    sim.runUntil(
        [&cores] {
            return std::all_of(cores.begin(), cores.end(),
                               [](const auto &core) {
                                   return core->budgetDone();
                               });
        },
        500 * sim::kUs, kPerfRunCap);
    std::vector<double> ipcs;
    for (const auto &core : cores)
        ipcs.push_back(core->ipcAt(sim.system.now()));
    return ipcs;
}

/** Weighted speedup of @p mix on a system with @p kind at @p nrh. */
double
sharedWs(DefenseKind kind, std::uint32_t nrh, const workload::Mix &mix,
         const std::vector<double> &ipc_alone,
         std::uint64_t insts_per_core)
{
    sys::SystemConfig cfg = sys::SystemConfig::paper(kind, nrh);
    // The performance study models a mid-lifetime slice of a long run:
    // PRAC counters are warm (see defense/prac.hh).
    cfg.defense.warm_counters = true;
    return stats::weightedSpeedup(appIpcs(cfg, mix.apps, insts_per_core),
                                  ipc_alone);
}

} // namespace

PerfReference
perfReference(const workload::Mix &mix, std::uint64_t insts_per_core)
{
    PerfReference ref;
    const sys::SystemConfig alone =
        sys::SystemConfig::paper(DefenseKind::kNone, 1024);
    for (const auto &app : mix.apps)
        ref.ipc_alone.push_back(
            appIpcs(alone, {app}, insts_per_core).front());
    // No defense reads NRH, so any threshold gives the same bits.
    ref.ws_base = sharedWs(DefenseKind::kNone, 1024, mix, ref.ipc_alone,
                           insts_per_core);
    return ref;
}

double
normalizedWs(DefenseKind kind, std::uint32_t nrh, const workload::Mix &mix,
             const PerfReference &ref, std::uint64_t insts_per_core)
{
    const double ws =
        sharedWs(kind, nrh, mix, ref.ipc_alone, insts_per_core);
    return ref.ws_base > 0.0 ? ws / ref.ws_base : 0.0;
}

} // namespace leaky::core
