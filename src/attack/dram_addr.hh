/**
 * @file
 * Attacker-side address construction. In the paper's threat model (§5.2)
 * attack processes partially reverse engineer the DRAM address mapping
 * and massage pages into chosen rows/banks; in simulation that amounts
 * to composing physical addresses through a dram::MappingFunction — the
 * attacker's ASSUMED function, which mapping-order (wrong assumption)
 * and mapping-recovery (learned assumption) both route through.
 * Passing the system's own function (sys::System::mapper()) models the
 * "attacker already knows the mapping" baseline.
 */

#ifndef LEAKY_ATTACK_DRAM_ADDR_HH
#define LEAKY_ATTACK_DRAM_ADDR_HH

#include <cstdint>
#include <vector>

#include "dram/mapping.hh"
#include "sim/logging.hh"

namespace leaky::attack {

/** Physical address of (channel, rank, bankgroup, bank, row, column)
 *  under the attacker's assumed mapping function. Asserts the channel
 *  exists in @p fn's topology up front — a compose() of out-of-range
 *  coordinates would otherwise only trip the generic field-range check
 *  deep inside the mapper. */
inline std::uint64_t
rowAddress(const dram::MappingFunction &fn, std::uint32_t channel,
           std::uint32_t rank, std::uint32_t bankgroup, std::uint32_t bank,
           std::uint32_t row, std::uint32_t column = 0)
{
    LEAKY_ASSERT(channel < fn.channels(),
                 "attacker targets channel %u but the system has %u",
                 channel, fn.channels());
    dram::Address a;
    a.channel = channel;
    a.rank = rank;
    a.bankgroup = bankgroup;
    a.bank = bank;
    a.row = row;
    a.column = column;
    return fn.compose(a);
}

/** N addresses in distinct rows of the same bank (for Listing 2). */
inline std::vector<std::uint64_t>
rowsInBank(const dram::MappingFunction &fn, std::uint32_t channel,
           std::uint32_t rank, std::uint32_t bankgroup, std::uint32_t bank,
           std::uint32_t first_row, std::uint32_t count,
           std::uint32_t stride = 1)
{
    std::vector<std::uint64_t> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        out.push_back(rowAddress(fn, channel, rank, bankgroup, bank,
                                 first_row + i * stride));
    }
    return out;
}

} // namespace leaky::attack

#endif // LEAKY_ATTACK_DRAM_ADDR_HH
