/**
 * @file
 * Synthetic application workloads, the substitute for SPEC CPU2006/2017
 * traces (see DESIGN.md). The paper uses SPEC only as background memory
 * pressure, classified by row-buffer misses per kilo-instruction
 * (RBMPKI, §6.3) and as the multiprogrammed mixes behind Fig. 13. Each
 * AppSpec targets a (MPKI, RBMPKI) point with a characteristic access
 * pattern; generation is fully seeded and deterministic.
 */

#ifndef LEAKY_WORKLOAD_SYNTHETIC_HH
#define LEAKY_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/mapping.hh"
#include "sim/rng.hh"
#include "sys/core.hh"

namespace leaky::workload {

using sys::TraceEntry;

/** Memory-intensity class (paper Fig. 5/8: L, M, H by RBMPKI). */
enum class Intensity : std::uint8_t { kLow, kMedium, kHigh };

const char *intensityName(Intensity level);

/** Parameterised synthetic application. */
struct AppSpec {
    std::string name;
    double mpki = 10.0;     ///< Memory accesses per kilo-instruction.
    double rbmpki = 5.0;    ///< Row-buffer misses per kilo-instruction.
    double write_frac = 0.2;
    /** Fraction of accesses that stream sequentially (the rest jump to
     *  random rows, producing conflicts). */
    double stream_frac = 0.5;
    std::uint32_t footprint_rows = 4096; ///< Rows the app roams over.
    /** Memory-level parallelism (outstanding misses the app sustains);
     *  pointer-chasing apps like mcf have low MLP, streaming apps like
     *  lbm high MLP. Maps to the core's MSHR count. */
    std::uint32_t mlp = 8;
    std::uint64_t seed = 1;

    Intensity intensity() const;
};

/** Catalogue of SPEC-like applications spanning L/M/H intensity. */
std::vector<AppSpec> specLikeCatalog();

/** Applications of one intensity class from the catalogue. */
std::vector<AppSpec> appsWithIntensity(Intensity level);

/** Records a SPEC-like core replays before it loops back to its
 *  first record (see sys::TraceCore). */
inline constexpr std::uint32_t kAppTracePeriod = 40'000;

/**
 * The record stream of @p app: each next() call yields the following
 * trace record. Addresses are composed through the mapper so the trace
 * hits the intended rows/banks regardless of the mapping configuration.
 * Cores pull records on demand, so records past the point a run stops
 * are never generated. The stream references @p mapper, which must
 * outlive it.
 */
class AppTraceStream
{
  public:
    AppTraceStream(const AppSpec &app, const dram::MappingFunction &mapper);

    TraceEntry next();

  private:
    const dram::MappingFunction *mapper_;
    sim::Rng rng_;
    std::uint32_t footprint_;
    std::uint32_t columns_;
    double insts_per_access_; ///< Mean non-memory insts per access.
    double hits_per_miss_;    ///< Open-row accesses per row switch.
    double write_frac_;
    double stream_frac_;
    dram::Address cur_;
    double hit_budget_ = 0.0;
    /** Hot same-bank row pairs, their next column, and which row of
     *  each pair the next visit opens. */
    std::vector<dram::Address> hot_a_;
    std::vector<dram::Address> hot_b_;
    std::vector<std::uint32_t> hot_next_col_;
    std::vector<bool> hot_toggle_;
};

/** The first @p records records of AppTraceStream(@p app, @p mapper). */
std::vector<TraceEntry> generateTrace(const AppSpec &app,
                                      const dram::MappingFunction &mapper,
                                      std::uint32_t records);

/** A multiprogrammed mix: one AppSpec per core. */
struct Mix {
    std::string name;
    std::vector<AppSpec> apps;
};

/**
 * The Fig. 13 workload set: @p count four-core mixes drawn from the
 * catalogue with seeded randomness (the paper uses 60 mixes).
 */
std::vector<Mix> makeMixes(std::uint32_t count, std::uint32_t cores = 4,
                           std::uint64_t seed = 42);

} // namespace leaky::workload

#endif // LEAKY_WORKLOAD_SYNTHETIC_HH
