/**
 * @file
 * Basic DRAM vocabulary: commands, device coordinates, and helpers shared
 * by the device model, the memory controller, and the defenses.
 */

#ifndef LEAKY_DRAM_TYPES_HH
#define LEAKY_DRAM_TYPES_HH

#include <cstdint>
#include <string>

namespace leaky::dram {

/** DDR5 command subset modelled by the simulator. */
enum class Command : std::uint8_t {
    kAct,        ///< Activate a row (open into the row buffer).
    kPre,        ///< Precharge one bank.
    kPreAll,     ///< Precharge all banks in a rank.
    kRd,         ///< Column read (one cache line burst).
    kWr,         ///< Column write.
    kRef,        ///< All-bank periodic refresh (blocks rank for tRFC).
    kRfmAll,     ///< Refresh management, all banks (blocks rank).
    kRfmSameBank, ///< Refresh management, same bank in every bank group.
    kRfmOneBank, ///< Bank-Level PRAC back-off: blocks exactly one bank.
    /**
     * Victim-row refresh (targeted refresh): a tracker defense
     * (Graphene / Hydra) refreshes the neighbours of one identified
     * aggressor row. Blocks exactly one bank for tVRR (blast radius 2:
     * four row cycles) -- the preventive action the tracker covert
     * channels observe. Also reused with a short latency override to
     * model Hydra's counter-cache fill traffic.
     */
    kVrr
};

/** Number of distinct Command values (for stats arrays). */
inline constexpr std::size_t kNumCommands = 10;

/** Human-readable command mnemonic. */
const char *commandName(Command cmd);

/** Coordinates of a cache-line-sized column within the DRAM hierarchy. */
struct Address {
    /** Sentinel for unset cached flat indices. */
    static constexpr std::uint32_t kNoFlat = ~std::uint32_t{0};

    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bankgroup = 0;
    std::uint32_t bank = 0; ///< Bank index within the bank group.
    std::uint32_t row = 0;
    std::uint32_t column = 0; ///< Cache-line index within the row.

    /**
     * Cached flat (rank, bankgroup, bank) index within the channel,
     * filled by MappingFunction::decode / Organization::annotate so the
     * channel and scheduler hot paths skip the flattening multiplies.
     * kNoFlat means "not cached"; consumers fall back to computing it.
     * Mutating rank/bankgroup/bank invalidates the cache -- re-annotate.
     */
    std::uint32_t flat_bank = kNoFlat;
    /** Cached flat (rank, bankgroup) index; see flat_bank. */
    std::uint32_t flat_group = kNoFlat;

    bool
    sameBank(const Address &o) const
    {
        return channel == o.channel && rank == o.rank &&
               bankgroup == o.bankgroup && bank == o.bank;
    }

    bool
    sameRow(const Address &o) const
    {
        return sameBank(o) && row == o.row;
    }

    std::string str() const;
};

} // namespace leaky::dram

#endif // LEAKY_DRAM_TYPES_HH
