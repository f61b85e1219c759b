/**
 * @file
 * LeakyHammer covert channels (paper §6.3 and §7.3). A sender and a
 * receiver colocate two rows in one bank; the sender modulates the
 * defense's activation counters (by hammering or staying idle per
 * transmission window), and the receiver decodes by detecting the
 * defense's preventive actions in its own request latencies:
 *
 *  - PRAC channel: logic-1 = a back-off (>= 1.4 us) inside the window;
 *    multibit variants encode the symbol in how many receiver accesses
 *    happen before the back-off (§6.3, "Multibit Covert Channels").
 *  - PRFM channel: logic-1 = at least Trecv RFM-latency events in the
 *    window (§7.3); bank-level RAA counters make this channel noisier.
 */

#ifndef LEAKY_ATTACK_COVERT_HH
#define LEAKY_ATTACK_COVERT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "attack/probe.hh"
#include "sys/port.hh"
#include "sys/system.hh"

namespace leaky::attack {

/** Which defense the channel exploits. */
enum class ChannelKind : std::uint8_t { kPrac, kRfm };

/** Channel parameters shared by sender and receiver. */
struct CovertConfig {
    ChannelKind kind = ChannelKind::kPrac;
    Tick window = 25 * sim::kUs;   ///< 25 us PRAC / 20 us RFM (paper).
    std::uint32_t levels = 2;      ///< 2 = binary, 3 = ternary, 4 = quat.
    std::uint32_t trecv = 3;       ///< RFM-count threshold (PRFM, §7.3).
    /**
     * Channel the sender's rows live on. Defense instances are
     * per-channel, so the sender only charges counters on THIS
     * channel's defense.
     */
    std::uint32_t sender_channel = 0;
    /**
     * Channel the receiver's row lives on — the channel whose
     * preventive actions the receiver observes and whose stats feed
     * the ChannelResult ground truth. Differs from sender_channel
     * only in cross-channel isolation studies, where the channel must
     * collapse (per-channel defenses share no state).
     */
    std::uint32_t receiver_channel = 0;
    std::uint64_t sender_addr = 0;
    /**
     * Optional second sender row in the same bank. When set, the sender
     * alternates between its two rows so every access conflicts --
     * required when the receiver is NOT colocated in the sender's bank
     * (paper §9.1: "the sender can simply alternate between two rows
     * within one bank").
     */
    std::uint64_t sender_addr2 = 0;
    /**
     * Fuzzer-generated aggressor sequence (src/fuzz): when non-empty
     * the sender walks these addresses cyclically during logic-1
     * windows instead of the addr/addr2 alternation, restarting at the
     * sequence head on every window start so the replay is a pure
     * function of the pattern. All entries must decode onto
     * sender_channel (asserted by runCovertChannel).
     */
    std::vector<std::uint64_t> sender_sequence;
    std::uint64_t receiver_addr = 0;
    LatencyClassifier classifier;
    /**
     * Refresh filtering (paper §10.1): when preventive-action latencies
     * shrink into the refresh band (Figs. 11/12), the receiver
     * calibrates the periodic-refresh grid beforehand and ignores
     * events completing inside a blackout window around each k x tREFI
     * point. Requires deterministic (non-postponed) refresh.
     */
    bool refresh_blackout = false;
    Tick refi = 3'900'000;
    Tick blackout_post = 600'000; ///< tRFC + settle after the REF.
    /**
     * Multibit pacing: extra inter-access gap of the sender for symbol
     * s >= 1 (index s-1). Larger gaps delay the back-off, so the
     * receiver performs more accesses before observing it.
     */
    std::vector<Tick> sender_gaps = {0};
    /**
     * Multibit decoding: ascending receiver-access-count cut points
     * (levels-2 entries). A count below cuts[0] decodes as the fastest
     * symbol (levels-1); above the last cut as symbol 1.
     */
    std::vector<std::uint32_t> count_cuts;
};

/** Sender process: modulates activation counters per window. */
class CovertSender final : private AccessLoop::Agent
{
  public:
    CovertSender(sys::MemoryPort &port, const CovertConfig &cfg);

    /** Transmit @p symbols in consecutive windows starting at @p epoch. */
    void transmit(std::vector<std::uint8_t> symbols, Tick epoch);

  private:
    void windowStart(std::size_t index);
    /** Arm the next access if it still fits the window. */
    void next();
    std::optional<std::uint64_t> step() override;
    void onRead(Tick issued, Tick done, Tick latency) override;

    sys::MemoryPort &port_;
    CovertConfig cfg_;
    AccessLoop loop_;
    std::vector<std::uint8_t> symbols_;
    Tick epoch_ = 0;
    Tick window_begin_ = 0; ///< Reads issued before it are stale.
    Tick window_end_ = 0;
    Tick gap_ = 0;
    bool active_ = false;
    std::uint64_t accesses_ = 0; ///< Its parity alternates sender_addr2.
    std::size_t seq_pos_ = 0; ///< Cursor into cfg_.sender_sequence.
};

/** Receiver process: measures its own latencies and decodes. */
class CovertReceiver final : private AccessLoop::Agent
{
  public:
    CovertReceiver(sys::MemoryPort &port, const CovertConfig &cfg);

    /** Listen for @p n_symbols windows starting at @p epoch. */
    void listen(std::size_t n_symbols, Tick epoch,
                std::function<void()> on_done = {});

    const std::vector<std::uint8_t> &decoded() const { return decoded_; }

    /** Receiver access counts at the first back-off of each window
     *  (multibit calibration; 0 when no back-off was seen). */
    const std::vector<std::uint32_t> &backoffCounts() const
    {
        return backoff_counts_;
    }

    /** Per-window raw detections: back-offs seen (PRAC) or counted
     *  RFM-latency events (PRFM). The y-axes of Figs. 3 and 6. */
    const std::vector<std::uint32_t> &detections() const
    {
        return detections_;
    }

  private:
    void windowStart(std::size_t index);
    void finalizeWindow();
    /** Arm the next access, or stop listening if none fits. */
    void next();
    std::optional<std::uint64_t> step() override;
    void onRead(Tick issued, Tick done, Tick latency) override;
    std::uint8_t decodeSymbol() const;

    sys::MemoryPort &port_;
    CovertConfig cfg_;
    AccessLoop loop_;
    std::size_t n_symbols_ = 0;
    Tick epoch_ = 0;
    std::function<void()> on_done_;

    Tick window_end_ = 0;
    bool listening_ = false; ///< Issuing accesses in this window.

    std::uint32_t access_count_ = 0;
    std::uint32_t backoffs_seen_ = 0;
    std::uint32_t count_at_backoff_ = 0;
    std::uint32_t rfm_events_ = 0;

    std::vector<std::uint8_t> decoded_;
    std::vector<std::uint32_t> backoff_counts_;
    std::vector<std::uint32_t> detections_;
};

/** Outcome of one covert-channel run. */
struct ChannelResult {
    std::vector<std::uint8_t> sent;
    std::vector<std::uint8_t> received;
    double symbol_error = 0.0;
    double raw_bit_rate = 0.0; ///< bits/s.
    double capacity = 0.0;     ///< bits/s (Eq. 1).
    /** Ground truth below is the RECEIVER channel's stats view —
     *  explicit per-channel counters, not an implicit channel 0. */
    std::uint64_t backoffs = 0; ///< Ground truth preventive actions.
    std::uint64_t rfms = 0;
    std::uint64_t targeted_refreshes = 0; ///< Tracker VRRs (ground truth).
    std::uint64_t counter_fetches = 0;    ///< Hydra CC-miss traffic.
    /** The receiver's per-window raw detections (the y-axes of Figs. 3
     *  and 6; see CovertReceiver::detections). */
    std::vector<std::uint32_t> detections;
};

/**
 * The one covert transmission loop. Constructs a sender and a receiver
 * for every entry of @p pairs (in order), then starts each pair's
 * transmission and listening at a shared epoch @p epoch_delay from now,
 * and runs @p system until every receiver has decoded @p symbols.
 * Other agents (noise, background cores) may already be attached.
 * Returns one ChannelResult per pair: Eq.-1 metrics plus the ground
 * truth of the channel that pair's receiver listens on.
 */
std::vector<ChannelResult>
runCovertChannel(sys::System &system, const std::vector<CovertConfig> &pairs,
                 const std::vector<std::uint8_t> &symbols,
                 Tick epoch_delay = 2 * sim::kUs);

/** Single-pair form of the loop above. */
ChannelResult runCovertChannel(sys::System &system, const CovertConfig &cfg,
                               const std::vector<std::uint8_t> &symbols,
                               Tick epoch_delay = 2 * sim::kUs);

/**
 * Fill in addresses/classifier/window defaults for @p system, placing
 * both endpoints on memory channel @p channel (asserted to exist).
 */
CovertConfig makeChannelConfig(sys::System &system, ChannelKind kind,
                               std::uint32_t levels = 2,
                               std::uint32_t channel = 0);

/**
 * Calibrate multibit decode cut points: transmit a known symbol ramp on
 * a throwaway copy of the system and place cuts at midpoints between
 * the mean receiver counts of adjacent symbols.
 */
std::vector<std::uint32_t>
calibrateCuts(const sys::SystemConfig &sys_cfg, CovertConfig cfg,
              std::uint32_t reps_per_symbol = 8);

} // namespace leaky::attack

#endif // LEAKY_ATTACK_COVERT_HH
