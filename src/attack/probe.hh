/**
 * @file
 * Memory-request latency measurement routine (paper Listing 1) and the
 * latency classifier used by every LeakyHammer attack. The probe
 * replicates the userspace loop: clflush + load + timestamp, with the
 * previous iteration's end timestamp reused as the next start, so each
 * sample is (loop overhead + memory latency) exactly as in §6.2.
 */

#ifndef LEAKY_ATTACK_PROBE_HH
#define LEAKY_ATTACK_PROBE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dram/config.hh"
#include "sys/port.hh"

namespace leaky::attack {

using sim::Tick;

/** One timestamped latency measurement. */
struct LatencySample {
    Tick timestamp = 0; ///< End-of-iteration time.
    Tick latency = 0;   ///< Time since the previous iteration's end.
};

/** What a measured latency most likely was (paper Fig. 2 bands). */
enum class LatencyClass : std::uint8_t {
    kFast,     ///< Row hit / empty-bank activation.
    kConflict, ///< Row-buffer conflict (PRE + ACT + RD).
    kRfm,      ///< Delayed by a standalone RFM window (PRFM).
    kRefresh,  ///< Delayed by (postponed, back-to-back) periodic REFs.
    kBackoff   ///< Delayed by a PRAC back-off (tABOACT + recovery RFMs).
};

/** Threshold-based classifier for attacker-observed latencies. */
struct LatencyClassifier {
    Tick conflict_min = 60'000;  ///< >= this: at least a conflict.
    Tick rfm_min = 250'000;      ///< >= this: an RFM window intervened.
    Tick refresh_min = 520'000;  ///< >= this: a double periodic REF.
    Tick backoff_min = 900'000;  ///< >= this: a PRAC back-off.

    LatencyClass
    classify(Tick latency) const
    {
        if (latency >= backoff_min)
            return LatencyClass::kBackoff;
        if (latency >= refresh_min)
            return LatencyClass::kRefresh;
        if (latency >= rfm_min)
            return LatencyClass::kRfm;
        if (latency >= conflict_min)
            return LatencyClass::kConflict;
        return LatencyClass::kFast;
    }

    /**
     * Derive thresholds from the system's DRAM timing parameters.
     * @param rfms_per_backoff RFMs in a back-off recovery; fewer RFMs
     *        shrink the back-off latency toward the refresh band, which
     *        is exactly the Fig. 11 sensitivity.
     */
    static LatencyClassifier forTiming(const dram::Timing &timing,
                                       Tick base_latency = 90'000,
                                       std::uint32_t rfms_per_backoff = 4);
};

/** Non-memory work per attack-loop iteration: clflush + timer + loop
 *  control. Every attack agent (probe, covert sender and receiver,
 *  noise, fingerprint, counter leak, mapping recovery) pays it. */
inline constexpr Tick kIterOverhead = 15'000;

/** Listing-1 probe configuration. */
struct ProbeConfig {
    std::vector<std::uint64_t> addrs; ///< Rows to access in rotation.
    /** Channel the probe rows live on — the channel whose defense the
     *  probe observes; result collectors read that channel's stats. */
    std::uint32_t channel = 0;
    std::uint32_t iterations = 512;
};

/** The paper's Listing-1 measurement routine as a simulation agent. */
class LatencyProbe
{
  public:
    LatencyProbe(sys::MemoryPort &port, ProbeConfig cfg);

    /** Begin probing; @p on_done fires after the last iteration. */
    void start(std::function<void()> on_done = {});

    const std::vector<LatencySample> &samples() const { return samples_; }

  private:
    void iterate();

    sys::MemoryPort &port_;
    ProbeConfig cfg_;
    std::function<void()> on_done_;
    std::vector<LatencySample> samples_;
    std::uint32_t iter_ = 0;
    Tick mark_ = 0;
};

} // namespace leaky::attack

#endif // LEAKY_ATTACK_PROBE_HH
