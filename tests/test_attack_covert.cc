/** @file Covert-channel integration tests (PRAC and RFM channels). */

#include <gtest/gtest.h>

#include "attack/covert.hh"
#include "attack/dram_addr.hh"
#include "attack/message.hh"
#include "attack/noise.hh"
#include "core/experiments.hh"
#include "sys/system.hh"
#include "testing_alloc_counter.hh"

namespace {

using namespace leaky;
using attack::ChannelKind;

std::vector<std::uint8_t>
binarySymbols(const std::vector<bool> &bits)
{
    std::vector<std::uint8_t> symbols;
    for (bool b : bits)
        symbols.push_back(b ? 1 : 0);
    return symbols;
}

/** Transmit "MICRO" over the @p kind channel (Figs. 3/6). */
attack::ChannelResult
transmitMicro(ChannelKind kind)
{
    auto scenario = core::channelScenario(kind);
    scenario.bits = attack::bitsFromString("MICRO");
    return core::runScenario(scenario).pairs.front();
}

TEST(CovertChannel, PracTransmitsMicroErrorFree)
{
    const auto run = transmitMicro(ChannelKind::kPrac);
    EXPECT_EQ(run.received, run.sent);
    // Each logic-1 window saw exactly one back-off (paper Fig. 3).
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
        if (run.sent[i])
            EXPECT_EQ(run.detections[i], 1u) << "window " << i;
        else
            EXPECT_EQ(run.detections[i], 0u) << "window " << i;
    }
}

// The covert counterpart of Prac.SteadyStateDoesNotAllocate: once the
// first windows have grown the kernel's slabs, the System's in-flight
// slots, the controller queues and the defense counters, a pair runs
// window after window without reaching the heap (each access is the
// loop's bound step plus a read whose sink is the loop itself; the
// receiver reserved its per-window results).
TEST(CovertChannel, SteadyStateDoesNotAllocate)
{
    for (const ChannelKind kind : {ChannelKind::kPrac, ChannelKind::kRfm}) {
        SCOPED_TRACE(kind == ChannelKind::kPrac ? "PRAC" : "PRFM");
        sys::System system(kind == ChannelKind::kPrac
                               ? core::pracAttackSystem()
                               : core::prfmAttackSystem());
        const auto cfg = attack::makeChannelConfig(system, kind);
        std::vector<std::uint8_t> symbols(64);
        for (std::size_t i = 0; i < symbols.size(); ++i)
            symbols[i] = static_cast<std::uint8_t>((i * 5 + i / 3) & 1);
        // lint:allow(single-covert-loop): counts allocations after listen()
        attack::CovertSender sender(system, cfg);
        // lint:allow(single-covert-loop): counts allocations after listen()
        attack::CovertReceiver receiver(system, cfg);
        const sim::Tick epoch = system.now() + 2 * sim::kUs;
        sender.transmit(symbols, epoch);
        bool done = false;
        receiver.listen(symbols.size(), epoch, [&done] { done = true; });
        system.run(epoch - system.now() + 8 * cfg.window); // Warm-up.

        const std::uint64_t before = leaky_test_heap_allocs.load();
        system.run(symbols.size() * cfg.window);
        const std::uint64_t after = leaky_test_heap_allocs.load();
        EXPECT_EQ(after, before);
        ASSERT_TRUE(done);
        EXPECT_EQ(receiver.decoded(), symbols);
    }
}

TEST(CovertChannel, RfmTransmitsMicroErrorFree)
{
    const auto run = transmitMicro(ChannelKind::kRfm);
    EXPECT_EQ(run.received, run.sent);
    // Logic-1 windows see multiple RFMs, logic-0 windows fewer than
    // Trecv (paper Fig. 6).
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
        if (run.sent[i])
            EXPECT_GE(run.detections[i], 3u) << "window " << i;
        else
            EXPECT_LT(run.detections[i], 3u) << "window " << i;
    }
}

TEST(CovertChannel, RawBitRatesMatchWindowSizes)
{
    sys::System prac_sys(core::pracAttackSystem());
    const auto prac_cfg =
        attack::makeChannelConfig(prac_sys, ChannelKind::kPrac);
    const auto bits = attack::patternBits(
        attack::MessagePattern::kCheckered0, 16);
    const auto result = attack::runCovertChannel(
        prac_sys, prac_cfg, binarySymbols(bits));
    EXPECT_NEAR(result.raw_bit_rate, 40'000.0, 100.0); // 25 us windows.
}

TEST(CovertChannel, SenderIdleMeansNoBackoffs)
{
    sys::System system(core::pracAttackSystem());
    const auto cfg =
        attack::makeChannelConfig(system, ChannelKind::kPrac);
    const auto result = attack::runCovertChannel(
        system, cfg,
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kAllZeros, 24)));
    EXPECT_EQ(result.symbol_error, 0.0);
    EXPECT_EQ(result.backoffs, 0u); // Ground truth: none triggered.
}

TEST(CovertChannel, AllOnesTriggersOneBackoffPerWindow)
{
    sys::System system(core::pracAttackSystem());
    const auto cfg =
        attack::makeChannelConfig(system, ChannelKind::kPrac);
    const auto result = attack::runCovertChannel(
        system, cfg,
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kAllOnes, 24)));
    EXPECT_EQ(result.symbol_error, 0.0);
    EXPECT_NEAR(static_cast<double>(result.backoffs), 24.0, 2.0);
}

TEST(CovertChannel, CrossBankReceiverStillDecodesPrac)
{
    // PRAC back-offs block the whole channel (§5.2): the receiver works
    // from any bank.
    sys::System system(core::pracAttackSystem());
    auto cfg = attack::makeChannelConfig(system, ChannelKind::kPrac);
    // The sender self-conflicts between two rows of its bank; the
    // receiver listens from a different rank/bank-group/bank. With the
    // sender alone driving activations, charging the counters takes
    // ~25 us, so the transmission window doubles.
    cfg.sender_addr2 =
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1064);
    cfg.receiver_addr =
        attack::rowAddress(system.mapper(), 0, 1, 6, 3, 2000);
    cfg.window = 50 * sim::kUs;
    const auto result = attack::runCovertChannel(
        system, cfg,
        binarySymbols(attack::patternBits(
            attack::MessagePattern::kCheckered1, 32)));
    EXPECT_LE(result.symbol_error, 0.1);
}

TEST(CovertChannel, NoiseDegradesButDoesNotKillChannel)
{
    core::CovertScenario clean;
    clean.bits = attack::patternBits(attack::MessagePattern::kCheckered0,
                                     64);
    const auto quiet = core::runScenario(clean).pairs.front();

    core::CovertScenario noisy = clean;
    noisy.noise_sleep = 400'000; // High intensity.
    const auto loud = core::runScenario(noisy).pairs.front();

    EXPECT_LE(quiet.symbol_error, loud.symbol_error + 0.05);
    EXPECT_GT(loud.capacity, 0.0);
}

/** Property sweep: multibit round trips for every level count. */
class MultibitChannel : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MultibitChannel, RandomPayloadMostlyDecodes)
{
    core::CovertScenario scenario;
    scenario.levels = GetParam();
    scenario.bits =
        attack::patternBits(attack::MessagePattern::kRandom, 64);
    const auto result = core::runScenario(scenario).pairs.front();
    // Binary/ternary decode cleanly; quaternary tolerates some symbol
    // confusion (paper: 0.29 error).
    const double budget = GetParam() == 4 ? 0.35 : 0.05;
    EXPECT_LE(result.symbol_error, budget);
}

INSTANTIATE_TEST_SUITE_P(Levels, MultibitChannel,
                         ::testing::Values(2, 3, 4));

TEST(NoiseAgent, GeneratesBankConflicts)
{
    sys::System system(core::pracAttackSystem());
    attack::NoiseConfig cfg;
    cfg.addrs = attack::rowsInBank(system.mapper(), 0, 0, 0, 0, 3000, 4,
                                   128);
    cfg.sleep = 500'000;
    attack::NoiseAgent agent(system, cfg);
    agent.start();
    system.run(100 * sim::kUs);
    // ~100us / (0.5us + overhead) accesses.
    EXPECT_GT(agent.accessCount(), 150u);
    EXPECT_LT(agent.accessCount(), 220u);
    agent.stop();
    const auto before = agent.accessCount();
    system.run(20 * sim::kUs);
    EXPECT_LE(agent.accessCount(), before + 1);
}

} // namespace
