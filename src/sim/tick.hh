/**
 * @file
 * Simulation time base. One Tick equals one picosecond, which lets DRAM
 * timing parameters specified in fractional nanoseconds (e.g., tCK =
 * 0.416 ns for DDR5-4800) be represented exactly enough for cycle-level
 * simulation without floating-point drift.
 */

#ifndef LEAKY_SIM_TICK_HH
#define LEAKY_SIM_TICK_HH

#include <cstdint>

namespace leaky::sim {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "never" / unset times. */
inline constexpr Tick kTickMax = ~Tick{0};

/** One nanosecond in ticks. */
inline constexpr Tick kNs = 1000;
/** One microsecond in ticks. */
inline constexpr Tick kUs = 1000 * kNs;
/** One millisecond in ticks. */
inline constexpr Tick kMs = 1000 * kUs;

} // namespace leaky::sim

#endif // LEAKY_SIM_TICK_HH
