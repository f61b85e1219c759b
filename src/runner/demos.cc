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

int
runQuickstartDemo(int argc, char **argv, bool help)
{
    FlagParser parser;
    if (parser.parseOrPrintHelp(argc, argv, help))
        return 0;

    // A DDR5 system (paper Table 1) protected by PRAC at the attack-
    // study operating point NBO = 128, probed by two attacker rows in
    // one bank: alternating loads force a row-buffer conflict -- and
    // thus an activation -- on every access, charging the counters.
    const auto trace = core::runLatencyTrace(512);

    // Classify what the user-space loop observed.
    std::uint64_t by_class[5] = {0, 0, 0, 0, 0};
    for (const auto &sample : trace.samples)
        by_class[static_cast<int>(trace.classifier.classify(
            sample.latency))]++;

    std::printf("Observed %zu request latencies:\n", trace.samples.size());
    const char *names[5] = {"fast (row hit)", "row conflict",
                            "RFM window", "periodic refresh",
                            "PRAC back-off"};
    for (int c = 0; c < 5; ++c)
        std::printf("  %-18s %5llu\n", names[c],
                    static_cast<unsigned long long>(by_class[c]));

    std::printf("\nGround truth from the controller:\n");
    std::printf("  back-offs: %llu, refreshes: %llu, reads: %llu\n",
                static_cast<unsigned long long>(trace.stats.backoffs),
                static_cast<unsigned long long>(trace.stats.refreshes),
                static_cast<unsigned long long>(trace.stats.reads_served));
    std::printf("\nFirst samples (ns): ");
    for (std::size_t i = 0; i < 12 && i < trace.samples.size(); ++i)
        std::printf("%llu ", static_cast<unsigned long long>(
                                 trace.samples[i].latency / 1000));
    std::printf("\n");
    return 0;
}

int
runCovertDemo(int argc, char **argv, bool help)
{
    std::string message = "MICRO";
    std::string mapping_text = "row-interleaved";
    FlagParser parser;
    parser.addString("message", &message,
                     "text to transmit (default MICRO)");
    parser.addString("mapping", &mapping_text,
                     "address mapping, preset|order:...|xor:... "
                     "(default row-interleaved)");
    if (parser.parseOrPrintHelp(argc, argv, help))
        return 0;
    if (message.empty())
        throw UsageError("--message must be non-empty");
    dram::MappingSpec mapping;
    std::string error;
    if (!dram::MappingSpec::tryParse(mapping_text, &mapping, &error))
        throw UsageError("bad --mapping: " + error);

    std::printf("address mapping: %s\n", mapping.str().c_str());
    covertOneChannel(attack::ChannelKind::kPrac, message, mapping);
    covertOneChannel(attack::ChannelKind::kRfm, message, mapping);
    return 0;
}

int
runFingerprintDemo(int argc, char **argv, bool help)
{
    const auto max_sites =
        static_cast<std::uint32_t>(workload::websiteNames().size());
    std::uint32_t sites = 6, loads = 8;
    FlagParser parser;
    parser.addUint("sites", &sites,
                   "number of websites, 2.." + std::to_string(max_sites) +
                       " (default 6)");
    parser.addUint("loads", &loads, "loads per site, >= 2 (default 8)");
    if (parser.parseOrPrintHelp(argc, argv, help))
        return 0;
    if (sites < 2 || sites > max_sites)
        throw UsageError("--sites must be in [2, " +
                         std::to_string(max_sites) + "]");
    if (loads < 2)
        throw UsageError("--loads must be >= 2");

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
runMitigationDemo(int argc, char **argv, bool help)
{
    std::uint32_t nrh = 256;
    FlagParser parser;
    parser.addUint("nrh", &nrh,
                   "RowHammer threshold, 16..65536 (default 256)");
    if (parser.parseOrPrintHelp(argc, argv, help))
        return 0;
    if (nrh < 16 || nrh > 65536)
        throw UsageError("--nrh must be in [16, 65536]");

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

} // namespace

const std::vector<Demo> &
demos()
{
    static const std::vector<Demo> kDemos = {
        {"quickstart", "-", "Listing-1 latency probe, Fig. 2 bands",
         runQuickstartDemo},
        {"covert", "--message <s> --mapping <spec>",
         "transmit text over both covert channels", runCovertDemo},
        {"fingerprint", "--sites <n> --loads <n>",
         "website fingerprinting + classifier", runFingerprintDemo},
        {"mitigation", "--nrh <n>",
         "security/performance trade-off per defense", runMitigationDemo},
    };
    return kDemos;
}

const Demo *
findDemo(const std::string &name)
{
    for (const auto &demo : demos())
        if (name == demo.name)
            return &demo;
    return nullptr;
}

} // namespace leaky::runner
