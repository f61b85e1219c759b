/**
 * @file
 * Memory-request latency measurement routine (paper Listing 1), the
 * access loop every LeakyHammer attack agent runs it on, and the
 * latency classifier they all share. The loop replicates the userspace
 * routine: clflush + load + timestamp, with the previous iteration's
 * end timestamp reused as the next start, so each sample is (loop
 * overhead + memory latency) exactly as in §6.2.
 */

#ifndef LEAKY_ATTACK_PROBE_HH
#define LEAKY_ATTACK_PROBE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dram/config.hh"
#include "sim/event_queue.hh"
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
 *  control. AccessLoop::arm() charges it to every step of every attack
 *  agent (probe, covert sender and receiver, noise, fingerprint,
 *  counter leak, mapping recovery). */
inline constexpr Tick kIterOverhead = 15'000;

/**
 * The Listing-1 loop, written once for every attack agent. The agent
 * arms a step; when it fires, the agent names the address to read (or
 * none), the loop issues the cache-bypassing read, and on completion
 * hands the agent the latency since the previous completion. Whether
 * and when to arm again is always the agent's call: a load-to-use
 * agent arms from onRead(), the paced noise generator from step().
 * The step is one member-bound event and the loop is its reads' sink
 * (tag: the issue tick), so an access builds no callable.
 */
class AccessLoop final : private sys::ReadSink
{
  public:
    /** The side an attack agent implements. */
    class Agent
    {
      public:
        /** The armed step fired: the address to read now, or
         *  std::nullopt to read nothing. */
        virtual std::optional<std::uint64_t> step() = 0;

        /** The read issued at @p issued returned at @p done, @p latency
         *  after the previous read's return (or the last restart()). */
        virtual void onRead(Tick issued, Tick done, Tick latency) = 0;

      protected:
        ~Agent() = default;
    };

    AccessLoop(sys::MemoryPort &port, Agent &agent);
    // The step event and every read in flight point back at the loop.
    AccessLoop(const AccessLoop &) = delete;
    AccessLoop &operator=(const AccessLoop &) = delete;

    /** Take now as the previous iteration's end (a loop's start). */
    void restart() { mark_ = port_.now(); }

    /** Fire the next step kIterOverhead + @p gap from now, moving a
     *  step that is still pending. */
    void arm(Tick gap = 0);

  private:
    void fire();
    /** The read issued at tick @p tag returned at @p done. */
    void readDone(std::uint64_t tag, Tick done) override;

    sys::MemoryPort &port_;
    Agent &agent_;
    sim::Event step_;
    Tick mark_ = 0;
};

/** Listing-1 probe configuration. */
struct ProbeConfig {
    std::vector<std::uint64_t> addrs; ///< Rows to access in rotation.
    /** Channel the probe rows live on — the channel whose defense the
     *  probe observes; result collectors read that channel's stats. */
    std::uint32_t channel = 0;
    std::uint32_t iterations = 512;
};

/** The paper's Listing-1 measurement routine as a simulation agent. */
class LatencyProbe final : private AccessLoop::Agent
{
  public:
    LatencyProbe(sys::MemoryPort &port, ProbeConfig cfg);

    /** Begin probing; @p on_done fires after the last iteration. */
    void start(std::function<void()> on_done = {});

    const std::vector<LatencySample> &samples() const { return samples_; }

  private:
    void iterate();
    std::optional<std::uint64_t> step() override;
    void onRead(Tick issued, Tick done, Tick latency) override;

    ProbeConfig cfg_;
    AccessLoop loop_;
    std::function<void()> on_done_;
    std::vector<LatencySample> samples_;
    std::uint32_t iter_ = 0;
};

} // namespace leaky::attack

#endif // LEAKY_ATTACK_PROBE_HH
