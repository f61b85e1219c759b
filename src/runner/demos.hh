/**
 * @file
 * Interactive scenario demos, shared between `leakyhammer run <demo>`
 * and the thin example binaries in examples/. Each demo prints a
 * narrated walk-through of one paper scenario and returns a process
 * exit code (0 on success), so wrappers can forward it from main().
 */

#ifndef LEAKY_RUNNER_DEMOS_HH
#define LEAKY_RUNNER_DEMOS_HH

#include <cstdint>
#include <string>

#include "dram/mapping.hh"

namespace leaky::runner {

/** Listing-1 latency probe against PRAC; the Fig. 2 bands. */
int runQuickstartDemo();

/** Transmit @p message over the PRAC and RFM covert channels, with
 *  the system decoding through @p mapping (preset, order:, or xor:
 *  form; see docs/EXPERIMENTS.md). */
int runCovertDemo(const std::string &message,
                  const dram::MappingSpec &mapping);

/** Collect fingerprints, train the classifier, report accuracy. */
int runFingerprintDemo(std::uint32_t sites, std::uint32_t loads);

/** Security/performance trade-off of every defense at one NRH. */
int runMitigationDemo(std::uint32_t nrh);

/**
 * argv-style entry points shared by `leakyhammer run <demo>` and the
 * example binaries: strict flag parsing (exit code 2 on any unknown
 * flag, malformed value, or out-of-range setting), then the demo.
 * @p argv excludes the program/demo name; @p prog labels errors.
 */
int quickstartMain(int argc, char **argv, const char *prog);
int covertMain(int argc, char **argv, const char *prog);
int fingerprintMain(int argc, char **argv, const char *prog);
int mitigationMain(int argc, char **argv, const char *prog);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_DEMOS_HH
