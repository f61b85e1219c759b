/**
 * @file
 * Synthetic website-load traces for the PRAC-based side channel (§8).
 *
 * The paper collects Intel-Pin memory traces of a browser loading 40
 * popular websites (50 loads each) and replays them in simulation. We
 * substitute a seeded generator that reproduces the three properties the
 * attack relies on (paper Fig. 9):
 *
 *  1. loads of the SAME site produce similar back-off timelines -- the
 *     phase structure (resource parse/decode bursts over per-phase hot
 *     row pairs) is a deterministic function of the site index;
 *  2. DIFFERENT sites produce different timelines -- phase count,
 *     per-phase pacing, and hot-row placement vary per site;
 *  3. early execution windows look alike across sites -- every load
 *     starts with a shared "browser startup" phase independent of the
 *     site.
 *
 * Per-load jitter (pacing noise, phase-length wobble, extra background
 * accesses) models run-to-run variation between loads of one site.
 */

#ifndef LEAKY_WORKLOAD_WEBSITE_HH
#define LEAKY_WORKLOAD_WEBSITE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/mapping.hh"
#include "sys/core.hh"

namespace leaky::workload {

/** The 40 websites fingerprinted by the paper (§8, footnote 5). */
const std::vector<std::string> &websiteNames();

/** Generator configuration. */
struct WebsiteTraceConfig {
    std::uint32_t site = 0;    ///< Index into websiteNames().
    std::uint32_t load = 0;    ///< Which load of this site (jitter seed).
    std::uint64_t base_seed = 2025;
    /** Approximate page-load duration to cover (simulated). */
    sim::Tick duration = 4 * sim::kMs;
    /** Mean browser memory accesses per microsecond during a burst. */
    double burst_pace = 18.0;
};

/**
 * Generate the browser's memory trace for one load of one site.
 * The trace is replayed through a TraceCore (with caches), so repeated
 * lines are filtered realistically; row activations arise from walking
 * fresh columns of alternating row pairs.
 */
std::vector<sys::TraceEntry>
generateWebsiteTrace(const WebsiteTraceConfig &cfg,
                     const dram::MappingFunction &mapper);

} // namespace leaky::workload

#endif // LEAKY_WORKLOAD_WEBSITE_HH
