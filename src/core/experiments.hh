/**
 * @file
 * High-level experiment runners, shared by the figure registry, the
 * demos, the fuzzer and the benchmarks. Each runner declares an
 * Environment (the Table 1 system and the traffic beside it), builds
 * it as a Simulation, runs its measured agent on the one loop, and
 * returns the numbers the corresponding figure/table plots. Every
 * covert-channel result is a CovertScenario run by the one covert
 * runner, runScenario.
 *
 * Scale knobs: every runner takes explicit sizes; the figure registry
 * (src/runner/figures*.cc) picks them per smoke / default / full scale
 * (see EXPERIMENTS.md).
 */

#ifndef LEAKY_CORE_EXPERIMENTS_HH
#define LEAKY_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/covert.hh"
#include "attack/fingerprint.hh"
#include "attack/mapping_recovery.hh"
#include "attack/message.hh"
#include "attack/noise.hh"
#include "attack/probe.hh"
#include "ml/dataset.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"
#include "workload/website.hh"

namespace leaky::core {

using sim::Tick;

/** Paper Table 1 system with PRAC at the attack-study operating point
 *  (NBO = 128, 4 RFMs per back-off). */
sys::SystemConfig pracAttackSystem();

/** Paper §7 system: PRFM with TRFM = 40. */
sys::SystemConfig prfmAttackSystem();

// ------------------------------------------------- the one builder

/** One bank: memory channel, rank, bank group, bank. */
struct BankPlacement {
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bankgroup = 0;
    std::uint32_t bank = 0;

    bool
    operator==(const BankPlacement &o) const
    {
        return channel == o.channel && rank == o.rank &&
               bankgroup == o.bankgroup && bank == o.bank;
    }
};

/**
 * Everything that runs beside the measured agent, declared as data:
 * the system and the traffic sharing it — the Eq.-2 noise agent
 * (§6.3), the §8 victim browser, and SPEC-like apps (§6.3, §10.3,
 * Fig. 13).
 */
struct Environment {
    /** The operating point: defense and its overrides, channel count,
     *  mapping, seed, deterministic refresh. */
    sys::SystemConfig system = pracAttackSystem();
    /** Eq.-2 noise microbenchmark sleep (0 = no noise agent). */
    Tick noise_sleep = 0;
    /** The victim browser's page load (unset = no browser). */
    std::optional<workload::WebsiteTraceConfig> browser;
    /** Concurrent SPEC-like apps, one core each. */
    std::vector<workload::AppSpec> background;
    std::uint64_t inst_budget = 0; ///< Per core, Fig. 13 (0 = none).
    bool large_caches = false; ///< §10.3 hierarchy with prefetching.
};

/**
 * A built Environment — the one place a System is built for a run:
 * the System, with the noise agent, the browser and the apps started
 * in that order and kept alive with it.
 *
 * A run ends at the event that fixes its result: with an
 * `inst_budget`, the event in which the last core retires it stops
 * `system.run()` (Fig. 13), and runAgent() stops at the event in which
 * the measured agent finishes. The clock is left at that event's tick
 * (sys::System::stop()).
 */
struct Simulation {
    /** Noise rows go in @p noise_bank. */
    explicit Simulation(const Environment &env,
                        const BankPlacement &noise_bank = {});

    /** Start the measured agent — @p start hands it the callback to
     *  call once it has finished — and run until it has, asserting
     *  that it does within a simulated minute. */
    void runAgent(const std::function<void(std::function<void()>)> &start);

    sys::System system;
    std::unique_ptr<attack::NoiseAgent> noise;
    /** The browser's core (if any), then one per app in order. */
    std::vector<std::unique_ptr<sys::TraceCore>> cores;

  private:
    /** A core retired its budget: the last one stops the run. */
    static void budgetDone(void *self);

    std::size_t budgets_left_ = 0;
};

// ------------------------------------------------------------- Fig. 2

/** Fig. 2: latencies of consecutive requests under PRAC (Listing 1). */
struct LatencyTraceResult {
    std::vector<attack::LatencySample> samples;
    attack::LatencyClassifier classifier;
    ctrl::CtrlStats stats; ///< Ground truth when the probe finished.
    double mean_backoff_latency_ns = 0.0;
    double mean_conflict_latency_ns = 0.0;
    double mean_refresh_latency_ns = 0.0;
};

LatencyTraceResult runLatencyTrace(std::uint32_t iterations = 512,
                                   std::uint32_t rfms_per_backoff = 4);

// ------------------------------------------- covert-channel scenarios

/** One sender/receiver pair: the sender hammers row 1000 of its bank,
 *  the receiver reads row 2000 of its own. */
struct CovertPair {
    BankPlacement sender;
    BankPlacement receiver;
};

/**
 * One covert-channel scenario, declared as data: an Environment plus
 * the sender/receiver pairs it carries. Every covert result the paper
 * reports — the PRAC and RFM channels (§6.3, §7.3) with their noise,
 * app-noise, multibit and sensitivity studies, and the colocation,
 * countermeasure and trigger studies (Table 3, §11.4, §12) — is one of
 * these at a different operating point, run by runScenario, and so is
 * every pattern the fuzzer (src/fuzz) scores. Everything else is
 * derived, not declared:
 *
 *  - a pair whose receiver bank differs from its sender bank
 *    self-conflicts (§9.1): the sender alternates rows 1000 and 1064,
 *    and a PRAC window doubles to 50 us, since the sender alone must
 *    charge the counters;
 *  - the receiver filters refreshes (§10.1) exactly when
 *    `system.ctrl.deterministic_refresh` is set;
 *  - noise rows go in pair 0's sender bank;
 *  - multibit cut points are calibrated when `levels > 2`.
 */
struct CovertScenario : Environment {
    // Receiver strategy; a zero override keeps the derived value.
    attack::ChannelKind kind = attack::ChannelKind::kPrac;
    std::uint32_t levels = 2;
    Tick window = 0;         ///< Derived: 25 us PRAC, 20 us RFM.
    std::uint32_t trecv = 0; ///< RFM-count threshold (derived: 3).
    Tick backoff_min = 0;    ///< Back-off detection threshold.
    Tick rfm_min = 0;        ///< Slow-event (RFM band) threshold.

    /** Default: one colocated pair in channel 0, rank 0, bg 0, bank 0. */
    std::vector<CovertPair> pairs = {CovertPair{}};
    /** The mapping the attacker composes its rows through — a wrong
     *  reverse-engineered mapping (§5.2). Unset: the system's own. */
    std::optional<dram::MappingSpec> assumed_mapping;

    /** A fuzzer pattern: when set, each sender walks these rows of its
     *  bank cyclically in logic-1 windows instead of hammering row
     *  1000, pausing @ref sender_gap between accesses. */
    std::vector<std::uint32_t> sender_rows;
    Tick sender_gap = 0;

    std::vector<bool> bits; ///< The payload.
};

/** The PRAC (§6.3) or PRFM (§7.3) channel at the paper's attack
 *  operating point. */
CovertScenario channelScenario(attack::ChannelKind kind);

/** The generic LeakyHammer pair against @p kind at its family's attack
 *  operating point (PRAC NBO = 128, PRFM TRFM = 40, tracker NRH = 160,
 *  paper defaults otherwise). The receiver adapts to the defense's
 *  observable: back-off detection for the PRAC family, slow-event
 *  counting for the RFM/tracker families (RFM windows and targeted
 *  refreshes land in the same latency band, above conflicts and below
 *  refreshes). */
CovertScenario crossDefenseScenario(defense::DefenseKind kind);

/** What runScenario observed. The stats are copies taken when the
 *  last receiver finished. */
struct ScenarioResult {
    std::vector<attack::ChannelResult> pairs; ///< In scenario order.
    std::vector<ctrl::CtrlStats> channels;    ///< Per memory channel.
    ctrl::CtrlStats aggregate;                ///< Summed over channels.
};

/** Build the scenario's Simulation, then transmit the payload over
 *  every pair concurrently. */
ScenarioResult runScenario(const CovertScenario &scenario);

/** Average metrics over the four message patterns (§6.3, §7.3). */
struct PatternSweepResult {
    double raw_bit_rate = 0.0;
    double error_probability = 0.0;
    double capacity = 0.0;
};

/** runScenario's first pair averaged over the four message patterns,
 *  each @p n_bits long (the scenario's own payload is replaced). */
PatternSweepResult runPatternSweep(CovertScenario scenario,
                                   std::size_t n_bits);

/** crossDefenseScenario(kind)'s system. */
sys::SystemConfig crossDefenseSystemConfig(defense::DefenseKind kind);

/** crossDefenseScenario(kind)'s sender/receiver pair on @p system. */
attack::CovertConfig crossDefenseChannelConfig(sys::System &system,
                                               defense::DefenseKind kind);

// ------------------------------------------------------- Figs. 9/10, T2

/** One collected website fingerprint. */
struct FingerprintSample {
    std::uint32_t site = 0;
    std::uint32_t load = 0;
    std::vector<Tick> backoff_times;
    Tick duration = 0;
};

/** Side-channel data-collection options (§8: NRH = 64). */
struct FingerprintSpec {
    std::uint32_t sites = 40;
    std::uint32_t loads_per_site = 50;
    std::uint32_t nrh = 64;
    Tick duration = 4 * sim::kMs;
    bool large_caches = false;    ///< §10.3 variant.
    std::uint64_t seed = 2025;
};

/** Collect fingerprints by simulating browser + probe per load. */
std::vector<FingerprintSample>
collectFingerprints(const FingerprintSpec &spec);

/** Collect a single (site, load) fingerprint. */
FingerprintSample collectOneFingerprint(const FingerprintSpec &spec,
                                        std::uint32_t site,
                                        std::uint32_t load);

/** Turn fingerprints into the ML dataset (extractFeatures per sample). */
ml::Dataset fingerprintDataset(const std::vector<FingerprintSample> &raw,
                               std::uint32_t windows = 32);

// ---------------------------------------------------------------- §9.1

/** One §9.1 counter-leak trial (Table 3's row-granular column). */
struct CounterLeakTrial {
    std::uint32_t secret = 0; ///< Victim's priming activation count.
    std::uint32_t leaked = 0; ///< NBO - attacker activations.
    double elapsed_us = 0.0;
    double bits = 0.0; ///< log2(NBO) leaked per shot.
};

/** Prime the shared row's counter with @p secret and leak it back. */
CounterLeakTrial runCounterLeakTrial(std::uint32_t secret);

// ------------------------------- online mapping recovery (ROADMAP 2)

/** One point on the recovery figure's mapping axis. */
struct RecoveryMappingCase {
    std::string name;
    /** Extra XOR taps beyond a pure bit permutation (0 for presets). */
    std::uint32_t complexity = 0;
    dram::MappingSpec spec;
};

/** The mapping axis of the `mapping-recovery` figure: the three
 *  presets (complexity 0) plus row-interleaved variants that fold
 *  progressively higher row bits into bank-set masks — each fold
 *  forces the attacker's difference window to climb one step. */
std::vector<RecoveryMappingCase> recoveryMappings();

struct MappingRecoveryCellResult {
    attack::RecoveredMapping recovered;
    /** span(learned bank fns) == span(true ch/rank/bg/bank fns). */
    bool bank_match = false;
    /** Joint bank+row span equality (row fns are only identifiable
     *  modulo bank fns under a conflict oracle). */
    bool row_match = false;
};

/** Run one MappingRecovery attacker against a system decoding through
 *  @p mapping under @p defense, and grade the learned functions
 *  against the system mapper's ground-truth masks. */
MappingRecoveryCellResult
runMappingRecoveryCell(const dram::MappingSpec &mapping,
                       defense::DefenseKind defense, std::uint64_t seed);

// ------------------------------------------------------------- Fig. 13

/** The job-invariant half of a Fig. 13 cell: how a mix runs on the
 *  undefended system. A pure function of (mix, insts_per_core), so a
 *  sweep computes it once per mix and shares it across defenses and
 *  thresholds. */
struct PerfReference {
    /** IPC of each app of the mix running alone, in mix order. */
    std::vector<double> ipc_alone;
    /** Weighted speedup of the whole mix with no defense. */
    double ws_base = 0.0;
};

/** Simulate @p mix's reference: each app alone, then the mix shared,
 *  all on the undefended system. */
PerfReference perfReference(const workload::Mix &mix,
                            std::uint64_t insts_per_core);

/** Weighted speedup of @p mix under (@p kind, @p nrh), normalized by
 *  @p ref's undefended one (0 when that is 0). */
double normalizedWs(defense::DefenseKind kind, std::uint32_t nrh,
                    const workload::Mix &mix, const PerfReference &ref,
                    std::uint64_t insts_per_core);

} // namespace leaky::core

#endif // LEAKY_CORE_EXPERIMENTS_HH
