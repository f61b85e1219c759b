/**
 * @file
 * What the end-to-end benchmark driver reports about one run: named
 * metrics with their units, simulated counts that must repeat exactly
 * for the same seed, and self-checks on the outputs it produced.
 */

#ifndef LEAKY_BENCH_E2E_REPORT_HH
#define LEAKY_BENCH_E2E_REPORT_HH

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace leaky::e2e {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** @p part / @p whole, or 0 when nothing was measured. */
inline double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
};

struct Report {
    std::vector<Metric> metrics;
    /** Simulated quantities (never host time): a rerun on the same seed
     *  must reproduce every one of them bit for bit. */
    std::vector<std::pair<std::string, double>> counts;
    std::vector<Check> checks;

    void
    metric(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }

    void
    count(std::string name, double value)
    {
        counts.emplace_back(std::move(name), value);
    }

    void
    check(std::string name, bool ok, std::string detail = {})
    {
        checks.push_back({std::move(name), ok, std::move(detail)});
    }
};

} // namespace leaky::e2e

#endif // LEAKY_BENCH_E2E_REPORT_HH
