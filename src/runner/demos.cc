#include "runner/demos.hh"

#include <cstdio>
#include <vector>

#include "core/leakyhammer.hh"
#include "runner/flags.hh"

namespace leaky::runner {

namespace {

void
covertOneChannel(attack::ChannelKind kind, const std::string &message,
                 const dram::MappingSpec &mapping)
{
    const char *name =
        kind == attack::ChannelKind::kPrac ? "PRAC" : "RFM (PRFM)";
    core::banner(std::string(name) + " covert channel");

    auto scenario = core::channelScenario(kind);
    scenario.system.mapping = mapping;
    scenario.bits = attack::bitsFromString(message);
    const auto result = core::runScenario(scenario).pairs.front();

    std::vector<bool> received;
    std::printf("sent bits:     ");
    for (auto s : result.sent)
        std::printf("%d", s);
    std::printf("\nreceived bits: ");
    for (auto s : result.received) {
        std::printf("%d", s);
        received.push_back(s != 0);
    }
    std::printf("\ndetections:    ");
    for (auto d : result.detections)
        std::printf("%u", d > 9 ? 9 : d);
    std::printf("\ndecoded text:  \"%s\"\n",
                attack::stringFromBits(received).c_str());

    std::size_t errors = 0;
    for (std::size_t i = 0; i < result.sent.size(); ++i)
        errors += result.sent[i] != result.received[i];
    std::printf("bit errors:    %zu / %zu\n", errors, result.sent.size());
}

} // namespace

int
runQuickstartDemo()
{
    // 1. A DDR5 system (paper Table 1) protected by PRAC with the
    //    attack-study operating point NBO = 128.
    sys::SystemConfig cfg = core::pracAttackSystem();
    sys::System system(cfg);

    // 2. Two attacker-controlled rows in the same bank. Alternating
    //    loads force a row-buffer conflict -- and thus an activation --
    //    on every access, charging the PRAC counters.
    attack::ProbeConfig probe_cfg;
    probe_cfg.addrs = {
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 1000),
        attack::rowAddress(system.mapper(), 0, 0, 0, 0, 2000)};
    probe_cfg.iterations = 512;

    attack::LatencyProbe probe(system, probe_cfg);
    bool done = false;
    probe.start([&done] { done = true; });
    while (!done)
        system.run(sim::kMs);

    // 3. Classify what the user-space loop observed.
    const auto classifier =
        attack::LatencyClassifier::forTiming(cfg.ctrl.dram.timing);
    std::uint64_t by_class[5] = {0, 0, 0, 0, 0};
    for (const auto &sample : probe.samples())
        by_class[static_cast<int>(classifier.classify(sample.latency))]++;

    std::printf("Observed %zu request latencies:\n",
                probe.samples().size());
    const char *names[5] = {"fast (row hit)", "row conflict",
                            "RFM window", "periodic refresh",
                            "PRAC back-off"};
    for (int c = 0; c < 5; ++c)
        std::printf("  %-18s %5llu\n", names[c],
                    static_cast<unsigned long long>(by_class[c]));

    const auto &stats = system.stats(0);
    std::printf("\nGround truth from the controller:\n");
    std::printf("  back-offs: %llu, refreshes: %llu, reads: %llu\n",
                static_cast<unsigned long long>(stats.backoffs),
                static_cast<unsigned long long>(stats.refreshes),
                static_cast<unsigned long long>(stats.reads_served));
    std::printf("\nFirst samples (ns): ");
    for (std::size_t i = 0; i < 12 && i < probe.samples().size(); ++i)
        std::printf("%llu ", static_cast<unsigned long long>(
                                 probe.samples()[i].latency / 1000));
    std::printf("\n");
    return 0;
}

int
runCovertDemo(const std::string &message, const dram::MappingSpec &mapping)
{
    std::printf("address mapping: %s\n", mapping.str().c_str());
    covertOneChannel(attack::ChannelKind::kPrac, message, mapping);
    covertOneChannel(attack::ChannelKind::kRfm, message, mapping);
    return 0;
}

int
runFingerprintDemo(std::uint32_t sites, std::uint32_t loads)
{
    core::banner("Website fingerprinting via PRAC back-offs");

    core::FingerprintSpec spec;
    spec.sites = sites;
    spec.loads_per_site = loads;
    spec.duration = 2 * sim::kMs;

    std::printf("collecting %u sites x %u loads (NRH = %u)...\n",
                spec.sites, spec.loads_per_site, spec.nrh);
    const auto raw = core::collectFingerprints(spec);

    // Show one strip per site.
    for (std::uint32_t site = 0; site < spec.sites; ++site) {
        for (const auto &sample : raw) {
            if (sample.site != site || sample.load != 0)
                continue;
            const auto features = attack::extractFeatures(
                sample.backoff_times, sample.duration, 24);
            std::vector<double> strip(features.values.begin(),
                                      features.values.begin() + 24);
            std::printf("%-12s [%s] %3zu back-offs\n",
                        workload::websiteNames()[site].c_str(),
                        core::sparkline(strip).c_str(),
                        sample.backoff_times.size());
        }
    }

    // Train on most loads, classify the held-out ones.
    const auto data = core::fingerprintDataset(raw);
    const auto split = ml::stratifiedSplit(data, 0.25, 99);
    ml::RandomForest model;
    model.fit(split.train);
    const auto cm = ml::evaluate(model, split.test);

    std::printf("\nrandom forest on held-out loads: accuracy %.2f "
                "(chance %.3f)\n",
                cm.accuracy(), 1.0 / data.n_classes);
    std::printf("macro F1 %.2f, precision %.2f, recall %.2f\n",
                cm.macroF1(), cm.macroPrecision(), cm.macroRecall());
    return 0;
}

int
runMitigationDemo(std::uint32_t nrh)
{
    core::banner("Defense comparison at NRH = " + std::to_string(nrh));

    const auto mixes = workload::makeMixes(3, 4, 7);
    constexpr std::uint64_t kInsts = 100'000;
    std::vector<core::PerfReference> refs;
    for (const auto &mix : mixes)
        refs.push_back(core::perfReference(mix, kInsts));
    core::Table table({"defense", "channel capacity", "normalized WS"});
    for (auto kind :
         {defense::DefenseKind::kPrac, defense::DefenseKind::kPrfm,
          defense::DefenseKind::kPracRiac, defense::DefenseKind::kFrRfm,
          defense::DefenseKind::kPracBank}) {
        // The PRAC channel, with the defense swapped in; the RFM
        // family runs at the requested threshold.
        core::CovertScenario scenario;
        scenario.system.defense.kind = kind;
        if (kind == defense::DefenseKind::kFrRfm ||
            kind == defense::DefenseKind::kPrfm) {
            scenario.system.defense.nrh = nrh;
            scenario.system.defense.nbo_override = 0;
        }
        scenario.bits =
            attack::patternBits(attack::MessagePattern::kCheckered0, 160);
        const double capacity =
            core::runScenario(scenario).pairs.front().capacity;
        double ws = 0.0;
        for (std::size_t m = 0; m < mixes.size(); ++m)
            ws += core::normalizedWs(kind, nrh, mixes[m], refs[m], kInsts);
        ws /= static_cast<double>(mixes.size());
        table.addRow({defense::defenseName(kind),
                      core::fmtKbps(capacity), core::fmt(ws, 3)});
        std::printf("%-10s capacity %-12s normalized WS %.3f\n",
                    defense::defenseName(kind),
                    core::fmtKbps(capacity).c_str(), ws);
    }
    std::printf("\n%s", table.str().c_str());
    std::printf("\nFR-RFM closes the channel completely; at low NRH its "
                "performance cost explodes, which is the paper's central "
                "trade-off (§11, Fig. 13).\n");
    return 0;
}

// ------------------------------------------------- argv entry points

namespace {

int
usageError(const char *prog, const std::string &error,
           const char *flag_usage)
{
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", prog, error.c_str(),
                 prog, flag_usage);
    return 2;
}

} // namespace

int
quickstartMain(int argc, char **argv, const char *prog)
{
    FlagParser parser;
    std::string error;
    if (!parser.parse(argc, argv, &error))
        return usageError(prog, error, "");
    return runQuickstartDemo();
}

int
covertMain(int argc, char **argv, const char *prog)
{
    const char *usage = "[--message <text>] [--mapping <spec>]";
    std::string message = "MICRO";
    std::string mapping = "row-interleaved";
    FlagParser parser;
    parser.addString("message", &message, "text to transmit");
    parser.addString("mapping", &mapping,
                     "address mapping (preset|order:...|xor:...)");
    std::string error;
    if (!parser.parse(argc, argv, &error))
        return usageError(prog, error, usage);
    if (message.empty())
        return usageError(prog, "--message must be non-empty", usage);
    dram::MappingSpec spec;
    if (!dram::MappingSpec::tryParse(mapping, &spec, &error))
        return usageError(prog, "bad --mapping: " + error, usage);
    return runCovertDemo(message, spec);
}

int
fingerprintMain(int argc, char **argv, const char *prog)
{
    const char *usage = "[--sites <n>] [--loads <n>]";
    std::uint32_t sites = 6, loads = 8;
    FlagParser parser;
    parser.addUint("sites", &sites, "number of websites");
    parser.addUint("loads", &loads, "loads per site");
    std::string error;
    if (!parser.parse(argc, argv, &error))
        return usageError(prog, error, usage);
    const auto max_sites =
        static_cast<std::uint32_t>(workload::websiteNames().size());
    if (sites < 2 || sites > max_sites)
        return usageError(prog,
                          "--sites must be in [2, " +
                              std::to_string(max_sites) + "]",
                          usage);
    if (loads < 2)
        return usageError(prog, "--loads must be >= 2", usage);
    return runFingerprintDemo(sites, loads);
}

int
mitigationMain(int argc, char **argv, const char *prog)
{
    std::uint32_t nrh = 256;
    FlagParser parser;
    parser.addUint("nrh", &nrh, "RowHammer threshold");
    std::string error;
    if (!parser.parse(argc, argv, &error))
        return usageError(prog, error, "[--nrh <n>]");
    if (nrh < 16 || nrh > 65536)
        return usageError(prog, "--nrh must be in [16, 65536]",
                          "[--nrh <n>]");
    return runMitigationDemo(nrh);
}

} // namespace leaky::runner
