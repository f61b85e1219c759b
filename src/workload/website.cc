#include "workload/website.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::workload {

using dram::Address;
using sim::Tick;

const std::vector<std::string> &
websiteNames()
{
    static const std::vector<std::string> names = {
        "aliexpress", "amazon", "apple", "baidu", "bilibili", "bing",
        "canva", "chatgpt", "discord", "duckduckgo", "facebook", "fandom",
        "github", "globo", "imdb", "instagram", "linkedin", "live",
        "naver", "netflix", "nytimes", "office", "pinterest", "quora",
        "reddit", "roblox", "samsung", "spotify", "telegram", "temu",
        "tiktok", "twitch", "weather", "whatsapp", "wikipedia", "x",
        "yahoo", "yandex", "youtube", "zoom"};
    return names;
}

namespace {

/** Ticks of compute per access at a given pace (accesses per us). */
std::uint32_t
nonMemForPace(double pace_per_us)
{
    // One instruction is 1000/(4 IPC x 3 GHz) = 83.3 ps; the gap between
    // accesses is 1 us / pace.
    const double gap_ps = 1e6 / pace_per_us;
    const double insts = gap_ps / 83.33;
    return static_cast<std::uint32_t>(std::max(1.0, insts - 1.0));
}

/** One activity burst over alternating rows of fresh row pairs. */
struct Phase {
    double weight = 1.0;       ///< Relative share of the page load.
    double pace_mult = 1.0;    ///< Pace multiplier during the burst.
    double duty = 0.7;         ///< Fraction of the phase spent bursting.
    std::uint32_t bankgroup = 0;
    std::uint32_t bank = 0;
    std::uint32_t row_base = 0;
};

} // namespace

std::vector<sys::TraceEntry>
generateWebsiteTrace(const WebsiteTraceConfig &cfg,
                     const dram::MappingFunction &mapper)
{
    const auto &org = mapper.org();
    LEAKY_ASSERT(cfg.site < websiteNames().size(), "site index %u >= 40",
                 cfg.site);

    // Site-deterministic structure.
    sim::Rng site_rng(cfg.base_seed * 1315423911ULL + cfg.site);
    // Load-specific jitter.
    sim::Rng load_rng(cfg.base_seed * 2654435761ULL + cfg.site * 977 +
                      cfg.load);

    std::vector<Phase> phases;
    {
        // Shared browser-startup phase: identical across sites (seeded
        // from base_seed only), so early execution windows look alike.
        sim::Rng common(cfg.base_seed);
        Phase startup;
        startup.weight = 0.6;
        startup.pace_mult = 1.2;
        startup.duty = 0.8;
        startup.bankgroup = static_cast<std::uint32_t>(
            common.below(org.bankgroups));
        startup.bank = static_cast<std::uint32_t>(
            common.below(org.banks_per_group));
        startup.row_base = 64;
        phases.push_back(startup);
    }
    const auto site_phases = 5 + site_rng.below(8); // 5..12 phases.
    for (std::uint64_t p = 0; p < site_phases; ++p) {
        Phase phase;
        phase.weight = 0.4 + site_rng.uniform() * 1.6;
        // Keep per-site intensity ranges overlapping: the classifiers
        // must rely on the temporal structure of the back-off strips
        // (paper Fig. 9), not on a single aggregate-count feature.
        phase.pace_mult = 0.6 + site_rng.uniform() * 1.0;
        phase.duty = 0.25 + site_rng.uniform() * 0.6;
        phase.bankgroup = static_cast<std::uint32_t>(
            site_rng.below(org.bankgroups));
        phase.bank = static_cast<std::uint32_t>(
            site_rng.below(org.banks_per_group));
        phase.row_base = static_cast<std::uint32_t>(
            1024 + site_rng.below(org.rows - 4096));
        phases.push_back(phase);
    }

    double total_weight = 0.0;
    for (const auto &phase : phases)
        total_weight += phase.weight;

    std::vector<sys::TraceEntry> trace;
    std::uint32_t next_row_offset = 0;

    // Per-load network/render delay before anything happens.
    {
        const Tick initial_delay = static_cast<Tick>(
            static_cast<double>(cfg.duration) * 0.06 *
            load_rng.uniform());
        if (initial_delay > 0) {
            sys::TraceEntry idle;
            idle.non_mem_insts = static_cast<std::uint32_t>(
                static_cast<double>(initial_delay) / 83.33);
            idle.addr = 64;
            trace.push_back(idle);
        }
    }

    for (const auto &phase : phases) {
        // Per-load wobble of duration and pace (+/-20%): network and
        // scheduling variance between loads of the same page.
        const double dur_jit = 0.8 + 0.4 * load_rng.uniform();
        const double pace_jit = 0.8 + 0.4 * load_rng.uniform();
        const Tick phase_ticks = static_cast<Tick>(
            static_cast<double>(cfg.duration) * phase.weight /
            total_weight * dur_jit);
        const Tick burst_ticks =
            static_cast<Tick>(static_cast<double>(phase_ticks) *
                              phase.duty);
        const double pace =
            cfg.burst_pace * phase.pace_mult * pace_jit; // per us.
        const auto accesses = static_cast<std::uint64_t>(
            static_cast<double>(burst_ticks) / 1e6 * pace);
        const std::uint32_t non_mem = nonMemForPace(pace);

        Address a;
        a.rank = 0;
        a.bankgroup = phase.bankgroup;
        a.bank = phase.bank;
        std::uint32_t pair = 0;
        for (std::uint64_t i = 0; i < accesses; ++i) {
            // Alternate between the two rows of the current pair while
            // walking fresh columns; advance to a new pair once both
            // rows' lines are exhausted (2 x columns accesses).
            if (i > 0 && i % (2 * org.columns) == 0)
                pair += 1;
            a.row = (phase.row_base + next_row_offset + pair * 2 +
                     static_cast<std::uint32_t>(i % 2)) %
                    org.rows;
            a.column = static_cast<std::uint32_t>((i / 2) % org.columns);

            sys::TraceEntry entry;
            entry.non_mem_insts = non_mem;
            entry.is_write = load_rng.uniform() < 0.15;
            entry.addr = mapper.compose(a);
            trace.push_back(entry);

            // Occasional background accesses (GC, timers, compositor):
            // load-specific noise that the classifier must tolerate.
            if (load_rng.uniform() < 0.05) {
                sys::TraceEntry bg;
                bg.non_mem_insts = non_mem / 2 + 1;
                bg.is_write = false;
                Address b;
                b.rank = static_cast<std::uint32_t>(
                    load_rng.below(org.ranks));
                b.bankgroup = static_cast<std::uint32_t>(
                    load_rng.below(org.bankgroups));
                b.bank = static_cast<std::uint32_t>(
                    load_rng.below(org.banks_per_group));
                b.row = static_cast<std::uint32_t>(
                    load_rng.below(org.rows));
                b.column = static_cast<std::uint32_t>(
                    load_rng.below(org.columns));
                bg.addr = mapper.compose(b);
                trace.push_back(bg);
            }
        }
        next_row_offset += (pair + 2) * 2;

        // Idle tail of the phase (network wait / think time).
        const Tick idle_ticks = phase_ticks - burst_ticks;
        if (idle_ticks > 0 && !trace.empty()) {
            sys::TraceEntry idle;
            idle.non_mem_insts = static_cast<std::uint32_t>(
                std::min<double>(static_cast<double>(idle_ticks) / 83.33,
                                 4e9));
            idle.is_write = false;
            idle.addr = trace.back().addr;
            trace.push_back(idle);
        }
    }
    return trace;
}

} // namespace leaky::workload
