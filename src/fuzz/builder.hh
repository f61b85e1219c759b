/**
 * @file
 * Deterministic pattern generation over the frequency/phase/amplitude
 * parameter space. FuzzParams bounds the space; PatternBuilder maps a
 * (params.seed, stream index) pair onto a valid HammerPattern via
 * `sim::seedFanout` — the same splitmix64 fan-out the sweep runner and
 * sys::System use — so the pattern stream is:
 *
 *  - deterministic: the same seed yields a byte-identical serialized
 *    stream (a property test pins this), and
 *  - random-access: pattern #i never depends on #0..#i-1, so a
 *    campaign can evaluate any subset on any thread schedule and the
 *    search trajectory stays bit-identical.
 *
 * generateInto/mutateInto write into caller-owned patterns and reuse
 * vector capacity — the fuzz hot loop (mutation + scoring) is
 * steady-state allocation-free (pinned by the shared test-binary
 * allocation counter).
 */

#ifndef LEAKY_FUZZ_BUILDER_HH
#define LEAKY_FUZZ_BUILDER_HH

#include <cstdint>
#include <vector>

#include "fuzz/pattern.hh"

namespace leaky::fuzz {

/** Bounds of the pattern parameter space (the fuzzer's knobs). */
struct FuzzParams {
    /** Base seed of the pattern stream (splitmix64 fan-out per index). */
    std::uint64_t seed = 1;
    /** Base periods to draw from (every aggressor frequency must
     *  divide the drawn period). */
    std::vector<std::uint32_t> periods = {4, 8, 16, 32};
    /** Extra per-access pacing delays to draw from (ticks). */
    std::vector<std::uint64_t> gaps = {0, 15'000, 45'000};
};

/** Seeded generator/mutator over the FuzzParams space. */
class PatternBuilder
{
  public:
    explicit PatternBuilder(FuzzParams params);

    const FuzzParams &params() const { return params_; }

    /** Pattern #index of the stream (pure function of params + index). */
    void generateInto(std::uint64_t index, HammerPattern *out) const;
    HammerPattern generate(std::uint64_t index) const;

    /**
     * Mutate @p src into @p dst with one seeded edit (re-rolled
     * aggressor tuple, added/removed aggressor, new gap, or new
     * period). Pure function of (params, src, index); @p dst reuses
     * its vector capacity.
     */
    void mutateInto(const HammerPattern &src, std::uint64_t index,
                    HammerPattern *dst) const;

  private:
    FuzzParams params_;
};

} // namespace leaky::fuzz

#endif // LEAKY_FUZZ_BUILDER_HH
