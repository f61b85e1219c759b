/**
 * @file
 * Shared machinery of the per-family figure files. The registry in
 * figures.cc concatenates the family factories declared here; the
 * helpers keep scale handling and row aggregation identical across
 * families. Internal to src/runner — not part of the public interface.
 */

#ifndef LEAKY_RUNNER_FIGURES_INTERNAL_HH
#define LEAKY_RUNNER_FIGURES_INTERNAL_HH

#include <cstdint>
#include <map>
#include <vector>

#include "attack/message.hh"
#include "fuzz/campaign.hh"
#include "runner/figures.hh"

namespace leaky::runner {

/** Sweep size requested on the CLI (never changes the physics). */
enum class Scale { kSmoke, kDefault, kFull };

Scale scaleOf(const RunOptions &opts);

std::uint64_t seedOr(const RunOptions &opts, std::uint64_t fallback);

/** {0, 1, ..., count - 1} as axis values. */
std::vector<double> iota(std::uint32_t count);

/** Pick a per-scale value (smoke / default / full). */
template <typename T>
T
byScale(Scale scale, T smoke, T dflt, T full)
{
    if (scale == Scale::kFull)
        return full;
    return scale == Scale::kSmoke ? smoke : dflt;
}

/** The job's `pattern` axis value (an attack::MessagePattern). */
attack::MessagePattern patternAxis(const Job &job);

/** Mean of column @p value grouped by the tuple of @p keys columns. */
std::map<std::vector<double>, double>
groupMean(const SweepResult &result, const std::vector<std::size_t> &keys,
          std::size_t value);

// Family factories, in registry presentation order. Each returns its
// figures fully built; figures.cc concatenates them.
std::vector<Figure> covertFigures();         ///< Figs. 2-8, 11-12, §6.3.
std::vector<Figure> fingerprintFigures();    ///< Figs. 9-10, T2, §10.3.
std::vector<Figure> countermeasureFigures(); ///< Fig. 13, §9/11/12, T3.
std::vector<Figure> trackerFigures();        ///< §13 generalisation.
std::vector<Figure> scalingFigures();        ///< §5.2 topology/mapping.
std::vector<Figure> fuzzFigures();           ///< Pattern fuzzer (src/fuzz).

/**
 * The fuzz-search sweep, shared between the fuzz-search figure and
 * `leakyhammer fuzz`. When @p capture is non-null it is resized to the
 * job count and each job ALSO stores its full CampaignResult (including
 * the best pattern's serialization) at its job index — thread-safe
 * because indices are distinct, deterministic because slots are merged
 * by index, never by completion order.
 */
SweepSpec fuzzSearchSpec(const RunOptions &opts,
                         std::vector<fuzz::CampaignResult> *capture);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_FIGURES_INTERNAL_HH
