/**
 * @file
 * Host-speed probe for the end-to-end benchmark.
 *
 * The benchmark host is shared. Other tenants change how fast this
 * process runs, by 1.5 times or more within minutes, while its CPU time
 * still equals its wall time: every instruction slows, not just the
 * waiting. The probe is a fixed piece of work that belongs to the
 * benchmark, not to the simulator, so no change to the program can
 * speed it up. A pass samples it before every job. speedFactor() turns
 * the pass's host seconds into the seconds the same pass takes when
 * the host runs at the reference speed; factor() does the same for one
 * short interval timed right after a sample.
 *
 * One sample interprets a fixed random bytecode: a 16-way switch per
 * step, data-dependent branches, and loads and stores in a 256 KiB
 * table. Like the simulator's event dispatch, it is branchy, pointer-
 * light code that lives in L1/L2. In calibration runs on the 4-CPU
 * Xeon host (32 runs per set, four workloads, two sets), the log of a
 * pass's job time moved 1.5 to 2.2 times as far as the log of the
 * probe's mean time, with correlations of 0.93 to 1.00. The factor is
 * therefore the probe's speed-up squared: that left a spread of 2-7%
 * across runs of one workload, where raw host time spread 17-30% and
 * the unsquared ratio 8-15%.
 */

#ifndef LEAKY_BENCH_E2E_HOST_PROBE_HH
#define LEAKY_BENCH_E2E_HOST_PROBE_HH

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "report.hh"
#include "sim/rng.hh"

namespace leaky::e2e {

class HostProbe
{
  public:
    /** Mean time of one sample on the reference host (the 4-CPU Xeon
     *  VM above, at its fastest observed speed). */
    static constexpr double kReferenceSeconds = 1.4e-3;

    HostProbe() : code_(kEntries), table_(kEntries)
    {
        sim::Rng rng(sim::seedFanout(kSeed, 0));
        for (auto &op : code_)
            op = static_cast<std::uint8_t>(rng.below(16));
        for (auto &word : table_)
            word = static_cast<std::uint32_t>(rng());
    }

    /** Run the probe once; @return its host seconds. */
    double
    sample()
    {
        const auto start = Clock::now();
        std::uint32_t a = 1, b = 2, c = 3, pc = 0;
        for (int i = 0; i < kSteps; ++i, ++pc) {
            switch (code_[pc & kMask]) {
            case 0: a += b; break;
            case 1: b ^= a >> 3; break;
            case 2: c = table_[a & kMask]; break;
            case 3: table_[b & kMask] = c; break;
            case 4:
                if (a & 1)
                    pc += 7;
                break;
            case 5: a *= 2654435761u; break;
            case 6: b += table_[(c >> 4) & kMask]; break;
            case 7: c ^= a + b; break;
            case 8:
                if (c & 4)
                    pc += 3;
                else
                    pc += 11;
                break;
            case 9: a = (a << 5) | (a >> 27); break;
            case 10: b = table_[(b + c) & kMask]; break;
            case 11: c -= a; break;
            case 12:
                if ((b ^ c) & 8)
                    a += 13;
                break;
            case 13: table_[(a + 5) & kMask] ^= b; break;
            case 14: b = b * 31 + c; break;
            default: pc += a & 3; break;
            }
        }
        sink_ += a + b + c;
        const double seconds = secondsSince(start);
        samples_.push_back(seconds);
        return seconds;
    }

    std::size_t count() const { return samples_.size(); }

    /** Host seconds spent in the probe so far. */
    double
    total() const
    {
        return std::accumulate(samples_.begin(), samples_.end(), 0.0);
    }

    /** (reference time / @p sample_seconds)^2: below 1 on a slowed
     *  host. Host seconds times this factor are seconds at the
     *  reference speed. */
    static double
    factor(double sample_seconds)
    {
        const double speedup = kReferenceSeconds / sample_seconds;
        return speedup * speedup;
    }

    /** factor() of the mean sample; 1 with no samples. */
    double
    speedFactor() const
    {
        return samples_.empty()
                   ? 1.0
                   : factor(total() / static_cast<double>(count()));
    }

    /** Forget the samples (the bytecode and table are kept). */
    void clear() { samples_.clear(); }

  private:
    static constexpr std::size_t kEntries = std::size_t{1} << 16;
    static constexpr std::uint32_t kMask = kEntries - 1;
    static constexpr int kSteps = 100'000;
    static constexpr std::uint64_t kSeed = 0x686f737470726f62ULL;

    std::vector<std::uint8_t> code_;
    std::vector<std::uint32_t> table_;
    std::vector<double> samples_;
    /** Folded from every sample, so none can be optimized away. */
    std::uint32_t sink_ = 0;
};

} // namespace leaky::e2e

#endif // LEAKY_BENCH_E2E_HOST_PROBE_HH
