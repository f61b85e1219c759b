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
    /** Fraction of row switches that return to a small hot-row set
     *  (real applications reuse rows heavily; hot rows are what charge
     *  PRAC counters and trigger back-offs at low NRH). */
    double hot_frac = 0.25;
    std::uint32_t hot_rows = 6;
    std::uint64_t seed = 1;

    Intensity intensity() const;
};

/** Catalogue of SPEC-like applications spanning L/M/H intensity. */
std::vector<AppSpec> specLikeCatalog();

/** Applications of one intensity class from the catalogue. */
std::vector<AppSpec> appsWithIntensity(Intensity level);

/**
 * Generate a trace of @p records records for @p app. Addresses are
 * composed through @p mapper so the trace hits the intended rows/banks
 * regardless of the mapping configuration.
 */
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
