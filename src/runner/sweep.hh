/**
 * @file
 * Declarative sweep specification. A SweepSpec names the cartesian axes
 * of an experiment (defense, threshold, noise level, workload, ...), a
 * repetition count, and a job function; expandJobs() unrolls the spec
 * into a flat vector of independent Jobs, each with a stable index and
 * a per-job seed fanned out from the base seed. Because every job
 * builds its own sys::System (the event kernel is per-instance), jobs
 * can run on any thread in any order and the merged result — collected
 * in job-index order — is bit-identical regardless of parallelism.
 */

#ifndef LEAKY_RUNNER_SWEEP_HH
#define LEAKY_RUNNER_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace leaky::runner {

/** One cartesian axis: a named parameter and the values it sweeps. */
struct Axis {
    std::string name;
    std::vector<double> values;
};

/** One expanded point of a sweep. */
struct Job {
    /** Stable position in expansion order; results merge by index. */
    std::size_t index = 0;
    std::uint32_t repetition = 0;
    /** Per-job seed (seed fan-out; independent of thread schedule). */
    std::uint64_t seed = 1;
    std::map<std::string, double> params; ///< One value per axis.

    /** Value of axis @p name; asserts the axis exists. */
    double param(const std::string &name) const;
};

/** Rows a job contributes to the figure's CSV (one per data point). */
using JobRows = std::vector<std::vector<double>>;

/** The work of one job. Must be self-contained and thread-safe: build
 *  a fresh System, simulate, return rows aligned with spec.columns. */
using JobFn = std::function<JobRows(const Job &)>;

/** A declarative sweep: axes x repetitions -> independent jobs. */
struct SweepSpec {
    std::string name;
    /** Expansion is row-major: the FIRST axis varies slowest, the last
     *  fastest, and repetitions fan out innermost. */
    std::vector<Axis> axes;
    std::uint32_t repetitions = 1;
    std::uint64_t base_seed = 1;
    /** CSV header; every row a job returns must have this arity. */
    std::vector<std::string> columns;
    JobFn job;
};

/** Total number of jobs the spec expands to (axes product x reps). */
std::size_t jobCount(const SweepSpec &spec);

/** Unroll the cartesian product into a flat, stably-ordered job list. */
std::vector<Job> expandJobs(const SweepSpec &spec);

/**
 * Seed fan-out: a statistically independent seed per (base, index)
 * pair, stable across runs and thread counts (splitmix64 of the pair).
 */
std::uint64_t jobSeed(std::uint64_t base, std::size_t index);

/**
 * The synthetic runner-overhead probe: @p jobs jobs of @p spin seeded
 * RNG draws each: the workload BM_SweepRunner times for the
 * BENCH_kernel.json sweep-pool throughput number.
 */
SweepSpec syntheticBenchSpec(std::uint32_t jobs, std::uint32_t spin);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_SWEEP_HH
