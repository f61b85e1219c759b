#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace leaky::workload {

using dram::Address;

namespace {

/** Fraction of row switches that return to a small hot-row set (real
 *  applications reuse rows heavily; hot rows are what charge PRAC
 *  counters and trigger back-offs at low NRH). */
constexpr double kHotFrac = 0.25;
constexpr std::uint32_t kHotRows = 6;

} // namespace

const char *
intensityName(Intensity level)
{
    switch (level) {
      case Intensity::kLow: return "L";
      case Intensity::kMedium: return "M";
      case Intensity::kHigh: return "H";
    }
    return "?";
}

Intensity
AppSpec::intensity() const
{
    if (rbmpki < 2.0)
        return Intensity::kLow;
    if (rbmpki < 10.0)
        return Intensity::kMedium;
    return Intensity::kHigh;
}

std::vector<AppSpec>
specLikeCatalog()
{
    // MPKI / RBMPKI points inspired by published SPEC characterisations
    // (e.g., the BLISS and CoMeT workload tables); names indicate the
    // SPEC workload whose behaviour each entry approximates. Each seed
    // is a literal (the value libstdc++'s std::hash<std::string> gave
    // the name), so traces do not depend on the standard library.
    std::vector<AppSpec> apps;
    auto add = [&apps](const char *name, double mpki, double rbmpki,
                       double wr, double stream, std::uint32_t rows,
                       std::uint32_t mlp, std::uint64_t seed) {
        AppSpec a;
        a.name = name;
        a.mpki = mpki;
        a.rbmpki = rbmpki;
        a.write_frac = wr;
        a.stream_frac = stream;
        a.footprint_rows = rows;
        a.mlp = mlp;
        a.seed = seed;
        apps.push_back(a);
    };
    // Low intensity (RBMPKI < 2).
    add("povray-like", 0.3, 0.05, 0.10, 0.9, 256, 4, 0xb9073cbb1c429806);
    add("leela-like", 0.8, 0.20, 0.15, 0.7, 512, 3, 0x1f2cfaa460be98b7);
    add("perlbench-like", 1.5, 0.40, 0.25, 0.6, 1024, 4, 0x3c57f8f47d7fd741);
    add("gcc-like", 3.0, 0.90, 0.30, 0.5, 2048, 4, 0xec4c1581839fb42d);
    add("namd-like", 2.0, 0.60, 0.10, 0.8, 1024, 8, 0xcb6df2a1f73fd845);
    add("x264-like", 4.0, 1.50, 0.30, 0.8, 2048, 8, 0xaca097adb91309ec);
    // Medium intensity (2 <= RBMPKI < 10).
    add("xalancbmk-like", 8.0, 2.50, 0.20, 0.5, 4096, 4, 0xf1bd4a2a1c14bf6f);
    add("cactus-like", 10.0, 4.00, 0.35, 0.6, 4096, 8, 0xe89f76db62935d3d);
    add("astar-like", 9.0, 3.20, 0.25, 0.3, 4096, 2, 0xbd68ecea40597999);
    add("sphinx-like", 12.0, 5.50, 0.15, 0.5, 8192, 6, 0x14d8a1b7e0ab00cb);
    add("zeusmp-like", 11.0, 6.00, 0.30, 0.6, 8192, 8, 0x4a28285f1f0346d1);
    add("omnetpp-like", 14.0, 8.00, 0.25, 0.2, 8192, 3, 0xbdbb9df4f5362821);
    // High intensity (RBMPKI >= 10).
    add("mcf-like", 30.0, 16.00, 0.20, 0.1, 16384, 3, 0xc62a6b8af9bbe105);
    add("lbm-like", 32.0, 14.00, 0.45, 0.7, 16384, 12, 0xf090079e126d2982);
    add("milc-like", 26.0, 12.00, 0.25, 0.4, 16384, 8, 0xe0cd1e4fa06b78e8);
    add("soplex-like", 24.0, 11.00, 0.25, 0.3, 16384, 5, 0x399a65893e325f51);
    add("gems-like", 33.0, 18.00, 0.30, 0.4, 16384, 4, 0xf757f1532d2a5724);
    add("libquantum-like", 28.0, 13.00, 0.15, 0.9, 8192, 12,
        0xd174f37d496bc27b);
    return apps;
}

std::vector<AppSpec>
appsWithIntensity(Intensity level)
{
    std::vector<AppSpec> out;
    for (const auto &app : specLikeCatalog()) {
        if (app.intensity() == level)
            out.push_back(app);
    }
    return out;
}

AppTraceStream::AppTraceStream(const AppSpec &app,
                               const dram::MappingFunction &mapper)
    : mapper_(&mapper), rng_(app.seed),
      footprint_(std::min(app.footprint_rows, mapper.org().rows)),
      columns_(mapper.org().columns),
      insts_per_access_(1000.0 / app.mpki),
      hits_per_miss_(app.mpki / app.rbmpki),
      write_frac_(app.write_frac), stream_frac_(app.stream_frac)
{
    LEAKY_ASSERT(app.mpki > 0.0 && app.rbmpki > 0.0 &&
                     app.rbmpki <= app.mpki,
                 "%s: need 0 < RBMPKI <= MPKI", app.name.c_str());
    const dram::Organization &org = mapper.org();
    cur_.rank = static_cast<std::uint32_t>(rng_.below(org.ranks));
    cur_.bankgroup = static_cast<std::uint32_t>(rng_.below(org.bankgroups));
    cur_.bank = static_cast<std::uint32_t>(rng_.below(org.banks_per_group));
    cur_.row = static_cast<std::uint32_t>(rng_.below(footprint_));
    cur_.column = 0;

    // Hot-row set: heavily reused same-bank row PAIRS. Alternating
    // between the two rows of a pair guarantees a row-buffer conflict
    // (and thus an activation) on every visit, and each visit walks
    // fresh columns (array-of-structs style) so the reuse is visible at
    // the DRAM level instead of being filtered by the caches. This is
    // the row-thrashing behaviour that charges PRAC counters at low
    // NRH (Fig. 13).
    const std::uint32_t hot_pairs = std::max(1u, kHotRows / 2);
    hot_a_.resize(hot_pairs);
    hot_b_.resize(hot_pairs);
    hot_next_col_.assign(hot_pairs, 0);
    hot_toggle_.assign(hot_pairs, false);
    for (std::uint32_t h = 0; h < hot_pairs; ++h) {
        Address hot;
        hot.rank = static_cast<std::uint32_t>(rng_.below(org.ranks));
        hot.bankgroup =
            static_cast<std::uint32_t>(rng_.below(org.bankgroups));
        hot.bank =
            static_cast<std::uint32_t>(rng_.below(org.banks_per_group));
        hot.row = static_cast<std::uint32_t>(rng_.below(footprint_));
        hot_a_[h] = hot;
        hot.row = (hot.row + 1 + static_cast<std::uint32_t>(
                                     rng_.below(64))) %
                  footprint_;
        hot_b_[h] = hot;
    }
}

TraceEntry
AppTraceStream::next()
{
    const dram::Organization &org = mapper_->org();
    if (hit_budget_ < 1.0) {
        // Row switch: revisit a hot pair, stream on, or jump. Each
        // branch grants the same in-row hit budget, so the switch
        // cadence (RBMPKI) is pattern-independent.
        if (rng_.uniform() < kHotFrac) {
            const auto h = rng_.below(hot_a_.size());
            const Address &hot = hot_toggle_[h] ? hot_b_[h] : hot_a_[h];
            hot_toggle_[h] = !hot_toggle_[h];
            cur_.rank = hot.rank;
            cur_.bankgroup = hot.bankgroup;
            cur_.bank = hot.bank;
            cur_.row = hot.row;
            cur_.column = hot_next_col_[h];
            if (hot_toggle_[h])
                hot_next_col_[h] = (hot_next_col_[h] + 4) % columns_;
        } else if (rng_.uniform() < stream_frac_) {
            cur_.row = (cur_.row + 1) % footprint_;
            cur_.column = static_cast<std::uint32_t>(rng_.below(columns_));
        } else {
            cur_.row = static_cast<std::uint32_t>(rng_.below(footprint_));
            cur_.bankgroup =
                static_cast<std::uint32_t>(rng_.below(org.bankgroups));
            cur_.bank = static_cast<std::uint32_t>(
                rng_.below(org.banks_per_group));
            cur_.rank = static_cast<std::uint32_t>(rng_.below(org.ranks));
            cur_.column = static_cast<std::uint32_t>(rng_.below(columns_));
        }
        hit_budget_ += hits_per_miss_;
    }
    hit_budget_ -= 1.0;

    TraceEntry entry;
    // Jitter the compute burst by +/-50% for realistic irregularity.
    const double jitter = 0.5 + rng_.uniform();
    entry.non_mem_insts = static_cast<std::uint32_t>(
        std::max(0.0, insts_per_access_ * jitter - 1.0));
    entry.is_write = rng_.uniform() < write_frac_;
    entry.addr = mapper_->compose(cur_);

    // Next access within the row: walk columns to dodge the caches
    // (each line is touched once per row visit).
    cur_.column = (cur_.column + 1) % columns_;
    return entry;
}

std::vector<TraceEntry>
generateTrace(const AppSpec &app, const dram::MappingFunction &mapper,
              std::uint32_t records)
{
    AppTraceStream stream(app, mapper);
    std::vector<TraceEntry> trace;
    trace.reserve(records);
    while (trace.size() < records)
        trace.push_back(stream.next());
    return trace;
}

std::vector<Mix>
makeMixes(std::uint32_t count, std::uint32_t cores, std::uint64_t seed)
{
    const auto catalog = specLikeCatalog();
    sim::Rng rng(seed);
    std::vector<Mix> mixes;
    mixes.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Mix mix;
        mix.name = "mix" + std::to_string(i);
        for (std::uint32_t c = 0; c < cores; ++c) {
            AppSpec app = catalog[rng.below(catalog.size())];
            // Decorrelate footprints of identical apps across cores.
            app.seed += i * 131 + c;
            mix.apps.push_back(app);
        }
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

} // namespace leaky::workload
