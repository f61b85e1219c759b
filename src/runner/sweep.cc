#include "runner/sweep.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::runner {

double
Job::param(const std::string &name) const
{
    const auto it = params.find(name);
    LEAKY_ASSERT(it != params.end(), "job has no such axis parameter");
    return it->second;
}

std::size_t
jobCount(const SweepSpec &spec)
{
    std::size_t count = spec.repetitions;
    for (const auto &axis : spec.axes) {
        LEAKY_ASSERT(!axis.values.empty(), "sweep axis has no values");
        count *= axis.values.size();
    }
    return count;
}

std::vector<Job>
expandJobs(const SweepSpec &spec)
{
    const std::size_t total = jobCount(spec);
    std::vector<Job> jobs;
    jobs.reserve(total);

    // Odometer over (axes..., repetition), last digit fastest.
    std::vector<std::size_t> digits(spec.axes.size(), 0);
    for (std::size_t index = 0; index < total; ++index) {
        Job job;
        job.index = index;
        job.repetition =
            static_cast<std::uint32_t>(index % spec.repetitions);
        job.seed = jobSeed(spec.base_seed, index);
        for (std::size_t a = 0; a < spec.axes.size(); ++a)
            job.params[spec.axes[a].name] =
                spec.axes[a].values[digits[a]];
        jobs.push_back(std::move(job));

        // Advance the odometer only at repetition boundaries.
        if ((index + 1) % spec.repetitions == 0) {
            for (std::size_t a = spec.axes.size(); a-- > 0;) {
                if (++digits[a] < spec.axes[a].values.size())
                    break;
                digits[a] = 0;
            }
        }
    }
    return jobs;
}

std::uint64_t
jobSeed(std::uint64_t base, std::size_t index)
{
    return sim::seedFanout(base, index);
}

SweepSpec
syntheticBenchSpec(std::uint32_t jobs, std::uint32_t spin)
{
    SweepSpec spec;
    spec.name = "bench";
    spec.base_seed = 11;
    spec.axes = {{"job", {}}};
    for (std::uint32_t i = 0; i < jobs; ++i)
        spec.axes[0].values.push_back(i);
    spec.columns = {"job", "value"};
    spec.job = [spin](const Job &job) -> JobRows {
        sim::Rng rng(job.seed);
        double acc = 0;
        for (std::uint32_t i = 0; i < spin; ++i)
            acc += rng.uniform();
        return {{job.param("job"), acc}};
    };
    return spec;
}

} // namespace leaky::runner
