/** @file System-mapping tests: MappingFunction's physical-address
 *  decode/compose round trips and the preset field orders. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/mapping.hh"
#include "sim/rng.hh"

namespace {

using leaky::dram::Address;
using leaky::dram::mappingPresets;
using leaky::dram::MappingFunction;
using leaky::dram::MappingSpec;
using leaky::dram::Organization;

TEST(AddressMapper, CapacityMatchesGeometry)
{
    Organization org;
    MappingFunction mapper(org, 1, MappingSpec{});
    const std::uint64_t expected = 64ull * org.columns * org.bankgroups *
                                   org.banks_per_group * org.ranks *
                                   org.rows;
    EXPECT_EQ(mapper.capacityBytes(), expected);
}

TEST(AddressMapper, ConsecutiveLinesWalkColumnsFirst)
{
    Organization org;
    MappingFunction mapper(org, 1, MappingSpec{});
    const auto a0 = mapper.decode(0);
    const auto a1 = mapper.decode(64);
    EXPECT_EQ(a0.column + 1, a1.column);
    EXPECT_TRUE(a0.sameBank(a1));
    EXPECT_EQ(a0.row, a1.row);
}

TEST(AddressMapper, OffsetWithinLineIgnored)
{
    Organization org;
    MappingFunction mapper(org, 1, MappingSpec{});
    const auto a = mapper.decode(4096);
    const auto b = mapper.decode(4096 + 63);
    EXPECT_TRUE(a.sameRow(b));
    EXPECT_EQ(a.column, b.column);
}

TEST(AddressMapper, ComposeDecodesBack)
{
    Organization org;
    MappingFunction mapper(org, 2, MappingSpec{});
    Address addr;
    addr.channel = 1;
    addr.rank = 1;
    addr.bankgroup = 5;
    addr.bank = 2;
    addr.row = 70'000;
    addr.column = 99;
    const auto phys = mapper.compose(addr);
    const auto back = mapper.decode(phys);
    EXPECT_EQ(back.channel, addr.channel);
    EXPECT_EQ(back.rank, addr.rank);
    EXPECT_EQ(back.bankgroup, addr.bankgroup);
    EXPECT_EQ(back.bank, addr.bank);
    EXPECT_EQ(back.row, addr.row);
    EXPECT_EQ(back.column, addr.column);
}

TEST(AddressMapperDeath, ComposeRejectsOutOfRangeFields)
{
    Organization org;
    MappingFunction mapper(org, 1, MappingSpec{});
    Address addr;
    addr.bankgroup = org.bankgroups; // One past the end.
    EXPECT_DEATH(mapper.compose(addr), "out of range");
}

TEST(AddressMapper, PresetOrdersArePermutations)
{
    Organization org;
    for (const std::string &preset : mappingPresets()) {
        // Construction validates the order; capacity is preset-
        // independent (a permutation never changes the field product).
        MappingFunction mapper(org, 4, MappingSpec::parse(preset));
        MappingFunction reference(org, 4, MappingSpec{});
        EXPECT_EQ(mapper.capacityBytes(), reference.capacityBytes())
            << preset;
    }
}

/** The names and their order are the CLI and CSV surface: a preset's
 *  position is its `mapping-order` CSV encoding. */
TEST(AddressMapper, PresetNamesAreStable)
{
    EXPECT_EQ(mappingPresets(),
              (std::vector<std::string>{"row-interleaved", "bank-first",
                                        "channel-last"}));
}

TEST(AddressMapper, BankFirstStripesConsecutiveLinesAcrossBanks)
{
    Organization org;
    MappingFunction mapper(org, 1, MappingSpec::parse("bank-first"));
    const auto a0 = mapper.decode(0);
    const auto a1 = mapper.decode(64);
    EXPECT_FALSE(a0.sameBank(a1)); // Bank fields at the LSB end.
    EXPECT_EQ(a0.column, a1.column);
}

/** Property: every preset round-trips random coordinates at any
 *  channel count. */
TEST(AddressMapper, PresetsRoundTripRandomCoordinates)
{
    Organization org;
    for (std::uint32_t index = 0; index < mappingPresets().size();
         ++index) {
        for (std::uint32_t channels : {1u, 2u, 4u}) {
            MappingFunction mapper(
                org, channels, MappingSpec::parse(mappingPresets()[index]));
            leaky::sim::Rng rng(channels * 7 + index);
            for (int i = 0; i < 200; ++i) {
                Address addr;
                addr.channel =
                    static_cast<std::uint32_t>(rng.below(channels));
                addr.rank =
                    static_cast<std::uint32_t>(rng.below(org.ranks));
                addr.bankgroup = static_cast<std::uint32_t>(
                    rng.below(org.bankgroups));
                addr.bank = static_cast<std::uint32_t>(
                    rng.below(org.banks_per_group));
                addr.row =
                    static_cast<std::uint32_t>(rng.below(org.rows));
                addr.column =
                    static_cast<std::uint32_t>(rng.below(org.columns));
                const auto back = mapper.decode(mapper.compose(addr));
                EXPECT_TRUE(back.sameRow(addr));
                EXPECT_EQ(back.column, addr.column);
                EXPECT_EQ(back.channel, addr.channel);
            }
        }
    }
}

/** Property: decode(compose(x)) == x for random x under any channel
 *  count. */
class MapperRoundTrip : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MapperRoundTrip, RandomRoundTrips)
{
    Organization org;
    const auto channels = GetParam();
    MappingFunction mapper(org, channels, MappingSpec{});
    leaky::sim::Rng rng(channels);
    for (int i = 0; i < 500; ++i) {
        Address addr;
        addr.channel = static_cast<std::uint32_t>(rng.below(channels));
        addr.rank = static_cast<std::uint32_t>(rng.below(org.ranks));
        addr.bankgroup =
            static_cast<std::uint32_t>(rng.below(org.bankgroups));
        addr.bank =
            static_cast<std::uint32_t>(rng.below(org.banks_per_group));
        addr.row = static_cast<std::uint32_t>(rng.below(org.rows));
        addr.column = static_cast<std::uint32_t>(rng.below(org.columns));
        const auto back = mapper.decode(mapper.compose(addr));
        EXPECT_TRUE(back.sameRow(addr));
        EXPECT_EQ(back.column, addr.column);
        EXPECT_EQ(back.channel, addr.channel);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, MapperRoundTrip,
                         ::testing::Values(1, 2, 4));

TEST(AddressMapper, AlternativeFieldOrderStillRoundTrips)
{
    Organization org;
    MappingFunction mapper(org, 1,
                           MappingSpec::parse("order:ba,col,ra,bg,row,ch"));
    Address addr;
    addr.rank = 1;
    addr.bankgroup = 3;
    addr.bank = 1;
    addr.row = 1234;
    addr.column = 17;
    const auto back = mapper.decode(mapper.compose(addr));
    EXPECT_TRUE(back.sameRow(addr));
    EXPECT_EQ(back.column, addr.column);
}

/** An order equal to a preset's is that preset: same spec, same
 *  canonical name. */
TEST(AddressMapper, FieldOrderCollapsesPresetEqualOrder)
{
    const MappingSpec order = MappingSpec::parse("order:bg,ba,ra,col,row,ch");
    EXPECT_EQ(order.str(), "bank-first");
    EXPECT_EQ(order, MappingSpec::parse("bank-first"));
}

} // namespace
