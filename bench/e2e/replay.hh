/**
 * @file
 * Layer replay: a fixed, seed-derived slice of the benchmark workloads'
 * inputs (Fig.-13 application mixes, website loads, the cross-defense
 * covert cell, fingerprint datasets) pushed through each lower layer's
 * public API on its own. Every call batch is timed on the host clock
 * (`<layer>.*` metrics) and every simulated quantity it observes is
 * recorded as a count that must repeat exactly for the same seed.
 */

#ifndef LEAKY_BENCH_E2E_REPLAY_HH
#define LEAKY_BENCH_E2E_REPLAY_HH

#include <cstdint>

#include "report.hh"

namespace leaky::e2e {

/** Run the replay for @p seed, appending to @p report. */
void runLayerReplay(std::uint64_t seed, Report &report);

} // namespace leaky::e2e

#endif // LEAKY_BENCH_E2E_REPLAY_HH
