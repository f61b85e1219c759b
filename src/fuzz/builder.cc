#include "fuzz/builder.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::fuzz {

namespace {

/** Distinguishes the mutation stream from the generation stream of the
 *  same (seed, index) pair. */
constexpr std::uint64_t kMutateStream = 0x6d75746174656463ULL;

/** Distinct aggressor row slots per pattern. */
constexpr std::uint32_t kMinRows = 1;
constexpr std::uint32_t kMaxRows = 6;
/** Aggressor tuples per pattern (>= the drawn row count). */
constexpr std::uint32_t kMaxAggressors = 8;
constexpr std::uint32_t kMaxAmplitude = 4;
static_assert(kMinRows >= 1 && kMinRows <= kMaxRows &&
                  kMaxRows <= HammerPattern::kMaxRows,
              "row bounds out of range");
static_assert(kMaxAggressors >= kMaxRows &&
                  kMaxAggressors <= HammerPattern::kMaxAggressors,
              "aggressor bound out of range");
static_assert(kMaxAmplitude >= 1 &&
                  kMaxAmplitude <= HammerPattern::kMaxAmplitude,
              "amplitude bound out of range");

/** Uniform divisor of @p period (period <= kMaxPeriod, so two passes
 *  beat building a divisor list — no allocation). */
std::uint32_t
randomDivisor(sim::Rng &rng, std::uint32_t period)
{
    std::uint32_t count = 0;
    for (std::uint32_t d = 1; d <= period; ++d)
        count += period % d == 0 ? 1 : 0;
    std::uint32_t pick = static_cast<std::uint32_t>(rng.below(count));
    for (std::uint32_t d = 1; d <= period; ++d) {
        if (period % d != 0)
            continue;
        if (pick == 0)
            return d;
        pick -= 1;
    }
    LEAKY_ASSERT(false, "unreachable: divisor pick out of range");
    return 1;
}

void
rollTuple(sim::Rng &rng, std::uint32_t period, std::uint32_t max_amp,
          Aggressor *agg)
{
    agg->freq = randomDivisor(rng, period);
    agg->phase = static_cast<std::uint32_t>(rng.below(period / agg->freq));
    agg->amp = static_cast<std::uint32_t>(rng.range(1, max_amp));
}

/** Deterministic density fix-up: flatten amplitudes (in listed order)
 *  until the expansion fits kMaxAccesses. Only reachable with
 *  user-widened FuzzParams periods; the defaults can never overflow. */
void
fitDensity(HammerPattern *p)
{
    for (auto &agg : p->aggressors) {
        if (p->accessesPerPeriod() <= HammerPattern::kMaxAccesses)
            return;
        agg.amp = 1;
    }
}

} // namespace

PatternBuilder::PatternBuilder(FuzzParams params)
    : params_(std::move(params))
{
    LEAKY_ASSERT(!params_.periods.empty(), "no periods to draw from");
    LEAKY_ASSERT(!params_.gaps.empty(), "no gaps to draw from");
    for (const auto period : params_.periods)
        LEAKY_ASSERT(period >= 1 && period <= HammerPattern::kMaxPeriod,
                     "period %u out of range", period);
    for (const auto gap : params_.gaps)
        LEAKY_ASSERT(gap <= HammerPattern::kMaxGap,
                     "gap %llu out of range",
                     static_cast<unsigned long long>(gap));
}

void
PatternBuilder::generateInto(std::uint64_t index,
                             HammerPattern *out) const
{
    sim::Rng rng(sim::seedFanout(params_.seed, index));
    out->period = params_.periods[rng.below(params_.periods.size())];
    out->gap = params_.gaps[rng.below(params_.gaps.size())];
    const auto rows = static_cast<std::uint32_t>(
        rng.range(kMinRows, kMaxRows));
    const auto n_aggs = static_cast<std::uint32_t>(
        rng.range(rows, kMaxAggressors));
    out->aggressors.clear();
    for (std::uint32_t i = 0; i < n_aggs; ++i) {
        Aggressor agg;
        // The first `rows` tuples cover each row slot once; extras
        // re-visit random slots with their own frequency/phase.
        agg.row = i < rows ? i
                           : static_cast<std::uint32_t>(rng.below(rows));
        rollTuple(rng, out->period, kMaxAmplitude, &agg);
        out->aggressors.push_back(agg);
    }
    fitDensity(out);
    std::string error;
    LEAKY_ASSERT(out->validate(&error), "generated invalid pattern: %s",
                 error.c_str());
}

HammerPattern
PatternBuilder::generate(std::uint64_t index) const
{
    HammerPattern out;
    generateInto(index, &out);
    return out;
}

void
PatternBuilder::mutateInto(const HammerPattern &src, std::uint64_t index,
                           HammerPattern *dst) const
{
    sim::Rng rng(sim::seedFanout(params_.seed ^ kMutateStream, index));
    *dst = src;
    const auto pick = [&rng, dst]() -> Aggressor & {
        return dst->aggressors[rng.below(dst->aggressors.size())];
    };
    switch (rng.below(7)) {
      case 0: { // Re-roll one tuple's frequency/phase.
        Aggressor &agg = pick();
        const std::uint32_t amp = agg.amp;
        rollTuple(rng, dst->period, kMaxAmplitude, &agg);
        agg.amp = amp;
        break;
      }
      case 1: // Re-roll one tuple's amplitude.
        pick().amp = static_cast<std::uint32_t>(
            rng.range(1, kMaxAmplitude));
        break;
      case 2: // Re-point one tuple at another row slot.
        pick().row =
            static_cast<std::uint32_t>(rng.below(kMaxRows));
        break;
      case 3: // Grow: one more aggressor tuple (if room).
        if (dst->aggressors.size() <
            static_cast<std::size_t>(kMaxAggressors)) {
            Aggressor agg;
            agg.row = static_cast<std::uint32_t>(
                rng.below(kMaxRows));
            rollTuple(rng, dst->period, kMaxAmplitude, &agg);
            dst->aggressors.push_back(agg);
        } else {
            rollTuple(rng, dst->period, kMaxAmplitude, &pick());
        }
        break;
      case 4: // Shrink: drop one aggressor (if more than one).
        if (dst->aggressors.size() > 1) {
            const auto victim = rng.below(dst->aggressors.size());
            dst->aggressors.erase(dst->aggressors.begin() +
                                  static_cast<std::ptrdiff_t>(victim));
        } else {
            rollTuple(rng, dst->period, kMaxAmplitude, &pick());
        }
        break;
      case 5: // New pacing gap.
        dst->gap = params_.gaps[rng.below(params_.gaps.size())];
        break;
      default: { // New period: every tuple re-fits the new divisors.
        dst->period =
            params_.periods[rng.below(params_.periods.size())];
        for (auto &agg : dst->aggressors) {
            const std::uint32_t amp = agg.amp;
            rollTuple(rng, dst->period, kMaxAmplitude, &agg);
            agg.amp = amp;
        }
        break;
      }
    }
    fitDensity(dst);
    std::string error;
    LEAKY_ASSERT(dst->validate(&error), "mutated invalid pattern: %s",
                 error.c_str());
}

} // namespace leaky::fuzz
