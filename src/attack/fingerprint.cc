#include "attack/fingerprint.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace leaky::attack {

FingerprintProbe::FingerprintProbe(sys::MemoryPort &port,
                                   FingerprintConfig cfg)
    : port_(port), cfg_(std::move(cfg)), loop_(port, *this)
{
    LEAKY_ASSERT(!cfg_.rows.empty(), "probe needs test rows");
    LEAKY_ASSERT(cfg_.t_accesses > 0, "T must be positive");
    // Back-offs are channel-wide but never wider: rows on any other
    // channel would observe a different defense instance entirely.
    for (auto row : cfg_.rows)
        LEAKY_ASSERT(port_.mapper().decode(row).channel == cfg_.channel,
                     "probe row does not decode onto channel %u",
                     cfg_.channel);
}

void
FingerprintProbe::start(std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    start_ = port_.now();
    end_ = start_ + cfg_.duration;
    loop_.restart();
    iterate();
}

void
FingerprintProbe::iterate()
{
    if (port_.now() < end_)
        loop_.arm();
    else if (on_done_)
        on_done_();
}

std::optional<std::uint64_t>
FingerprintProbe::step()
{
    const std::uint64_t addr = cfg_.rows[row_index_];
    access_in_row_ += 1;
    if (access_in_row_ >= cfg_.t_accesses) {
        access_in_row_ = 0;
        row_index_ = (row_index_ + 1) % cfg_.rows.size();
    }
    return addr;
}

void
FingerprintProbe::onRead(Tick, Tick done, Tick latency)
{
    accesses_ += 1;
    if (cfg_.classifier.classify(latency) == LatencyClass::kBackoff)
        backoffs_.push_back(done - start_);
    iterate();
}

FingerprintFeatures
extractFeatures(const std::vector<Tick> &backoffs, Tick duration,
                std::uint32_t windows)
{
    LEAKY_ASSERT(duration > 0 && windows > 0, "bad feature parameters");
    FingerprintFeatures features;
    features.values.assign(windows, 0.0);

    for (Tick t : backoffs) {
        auto w = static_cast<std::size_t>(
            static_cast<unsigned __int128>(t) * windows / duration);
        w = std::min<std::size_t>(w, windows - 1);
        features.values[w] += 1.0;
    }

    // Pair statistics over consecutive back-off pairs (b0,b1), (b2,b3)..
    std::vector<double> in_pair_gap;
    std::vector<double> between_pair_gap;
    std::vector<double> pair_mean_ts;
    for (std::size_t i = 0; i + 1 < backoffs.size(); i += 2) {
        in_pair_gap.push_back(
            static_cast<double>(backoffs[i + 1] - backoffs[i]));
        pair_mean_ts.push_back(
            (static_cast<double>(backoffs[i]) +
             static_cast<double>(backoffs[i + 1])) /
            2.0);
        if (i >= 2) {
            between_pair_gap.push_back(
                static_cast<double>(backoffs[i] - backoffs[i - 1]));
        }
    }
    const auto summarize = [&features](const std::vector<double> &v) {
        if (v.empty()) {
            features.values.push_back(0.0);
            features.values.push_back(0.0);
            return;
        }
        double sum = 0.0;
        for (double x : v)
            sum += x;
        const double mean = sum / static_cast<double>(v.size());
        double var = 0.0;
        for (double x : v)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(v.size());
        // Microsecond units keep feature magnitudes comparable with the
        // window counts, which matters for kNN/SVM/perceptron.
        features.values.push_back(mean / 1e6);
        features.values.push_back(std::sqrt(var) / 1e6);
    };
    summarize(in_pair_gap);
    summarize(between_pair_gap);
    summarize(pair_mean_ts);
    features.values.push_back(static_cast<double>(backoffs.size()));
    return features;
}

} // namespace leaky::attack
