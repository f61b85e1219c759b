/** @file MappingSpec / MappingFunction / gf2 tests: the XOR-function
 *  mapping family — grammar accept/reject table, randomized invertible
 *  GF(2) round trips, non-invertible rejection, preset equivalence. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "dram/mapping.hh"
#include "sim/rng.hh"

namespace {

using leaky::dram::Address;
using leaky::dram::Field;
using leaky::dram::kNumFields;
using leaky::dram::mappingPresets;
using leaky::dram::MappingFunction;
using leaky::dram::MappingSpec;
using leaky::dram::Organization;
namespace gf2 = leaky::dram::gf2;

// --------------------------------------------------------- gf2 toolkit

TEST(Gf2BitBasis, InsertReduceRank)
{
    gf2::BitBasis basis;
    EXPECT_TRUE(basis.insert(0b1100));
    EXPECT_TRUE(basis.insert(0b0110));
    EXPECT_FALSE(basis.insert(0b1010)); // = 1100 ^ 0110.
    EXPECT_EQ(basis.rank(), 2u);
    EXPECT_TRUE(basis.contains(0b1010));
    EXPECT_FALSE(basis.contains(0b1000));
    EXPECT_EQ(basis.reduce(0), 0u);
    EXPECT_FALSE(basis.insert(0));
}

TEST(Gf2BitBasis, SameSpanIsBasisIndependent)
{
    gf2::BitBasis a, b;
    a.insert(0b101);
    a.insert(0b011);
    b.insert(0b110); // = 101 ^ 011.
    b.insert(0b011);
    EXPECT_TRUE(a.sameSpan(b));
    b.insert(0b001);
    EXPECT_FALSE(a.sameSpan(b));
}

TEST(Gf2Annihilator, OrthogonalComplementOfTheSpan)
{
    leaky::sim::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint32_t nbits = 4 + trial % 16;
        gf2::BitBasis basis;
        for (int i = 0; i < 6; ++i)
            basis.insert(rng.below(std::uint64_t{1} << nbits));
        const auto ann = gf2::annihilator(basis, nbits);
        EXPECT_EQ(ann.size(), nbits - basis.rank());
        for (std::uint64_t m : ann)
            for (std::uint64_t v : basis.rows())
                EXPECT_EQ(__builtin_popcountll(m & v) & 1, 0)
                    << "mask not orthogonal to span";
        // The annihilator masks are linearly independent.
        gf2::BitBasis check;
        for (std::uint64_t m : ann)
            EXPECT_TRUE(check.insert(m));
    }
}

// ------------------------------------------------- MappingSpec grammar

TEST(MappingSpec, ParseAcceptTable)
{
    // (input, canonical spelling) — pinned: these strings are the CLI
    // and CSV surface, so regressions here break user configs.
    const std::pair<const char *, const char *> accept[] = {
        {"row-interleaved", "row-interleaved"},
        {"bank-first", "bank-first"},
        {"channel-last", "channel-last"},
        // A field order equal to a preset canonicalizes onto it.
        {"order:col,bg,ba,ra,row,ch", "row-interleaved"},
        {"order:bg,ba,ra,col,row,ch", "bank-first"},
        {"order:ba,col,ra,bg,row,ch", "order:ba,col,ra,bg,row,ch"},
        // Ranges expand; terms keep their output-bit (LSB-first) order.
        {"xor:col=6:8", "xor:col=6,7,8"},
        {"xor:bg=13+19,14,15", "xor:bg=13+19,14,15"},
        // Field order in the text is canonical, not as written.
        {"xor:row=19:20;col=6:7", "xor:col=6,7;row=19,20"},
        // An omitted or empty field is zero-width.
        {"xor:ch=;col=6", "xor:col=6"},
    };
    for (const auto &[input, canonical] : accept) {
        MappingSpec spec;
        std::string error;
        ASSERT_TRUE(MappingSpec::tryParse(input, &spec, &error))
            << input << ": " << error;
        EXPECT_EQ(spec.str(), canonical) << input;
        // Canonical spellings are stable round trips.
        MappingSpec again;
        ASSERT_TRUE(MappingSpec::tryParse(spec.str(), &again, &error))
            << spec.str() << ": " << error;
        EXPECT_EQ(spec, again) << input;
    }
}

TEST(MappingSpec, ParseRejectTable)
{
    // (input, error fragment) — the messages are user-facing CLI
    // output; pin the discriminating fragment of each.
    const std::pair<const char *, const char *> reject[] = {
        {"bogus", "unknown mapping"},
        {"", "unknown mapping"},
        {"order:col,bg", "needs all 6"},
        {"order:col,col,ba,ra,row,ch", "duplicate field"},
        {"order:col,bg,ba,ra,row,zz", "unknown field"},
        {"xor:", "empty xor: spec"},
        {"xor:zz=6", "unknown field"},
        {"xor:col", "no '='"},
        {"xor:col=6;col=7", "duplicate field"},
        {"xor:col=5", "cache line"},
        {"xor:col=64", "out of the 64-bit address range"},
        {"xor:col=abc", "expected a physical bit index"},
        {"xor:col=6+6", "appears twice"},
        {"xor:col=12:6", "descending range"},
        {"xor:col=6,", "expected a physical bit index"},
    };
    for (const auto &[input, fragment] : reject) {
        MappingSpec spec;
        std::string error;
        EXPECT_FALSE(MappingSpec::tryParse(input, &spec, &error))
            << input;
        EXPECT_NE(error.find(fragment), std::string::npos)
            << input << " -> \"" << error << '"';
    }
}

TEST(MappingSpec, EqualityIsCanonicalText)
{
    const MappingSpec preset = MappingSpec::parse("row-interleaved");
    EXPECT_EQ(preset, MappingSpec::parse("order:col,bg,ba,ra,row,ch"));
    EXPECT_EQ(preset, MappingSpec{});
    // A preset never equals the xor: spelling of the same function —
    // sweep axes distinguish the two deliberately.
    const MappingFunction fn(Organization{}, 1, preset);
    const MappingSpec xored = MappingSpec::fromMasks(fn.masks());
    EXPECT_NE(preset, xored);
    EXPECT_EQ(xored, MappingSpec::parse(xored.str()));
}

// --------------------------------------------------- MappingFunction

TEST(MappingFunction, PresetsMatchTheirXorRespelling)
{
    Organization org;
    for (const std::string &preset : mappingPresets()) {
        for (std::uint32_t channels : {1u, 2u}) {
            const MappingFunction fn(org, channels,
                                     MappingSpec::parse(preset));
            // Every preset is a pure bit permutation...
            const auto masks = fn.masks();
            for (const auto &field_masks : masks)
                for (std::uint64_t mask : field_masks)
                    EXPECT_EQ(__builtin_popcountll(mask), 1);
            // ...and its explicit xor: respelling decodes identically.
            const MappingFunction xor_fn(org, channels,
                                         MappingSpec::fromMasks(masks));
            leaky::sim::Rng rng(17 * channels);
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t line =
                    rng.below(std::uint64_t{1} << fn.totalBits());
                const Address a = fn.decodeLine(line);
                const Address b = xor_fn.decodeLine(line);
                EXPECT_TRUE(a.sameRow(b));
                EXPECT_EQ(a.column, b.column);
                EXPECT_EQ(a.channel, b.channel);
            }
        }
    }
}

/** decode() fills the cached flat bank / bank-group indices the
 *  channel, scheduler and defense hot paths read — for permutation
 *  and XOR mappings alike — while decodeLine() stays raw. */
TEST(MappingFunction, DecodeFillsFlatBankCaches)
{
    Organization org;
    std::vector<std::pair<std::string, MappingSpec>> specs;
    for (const std::string &preset : mappingPresets())
        specs.push_back({preset, MappingSpec::parse(preset)});
    for (const auto &c : leaky::core::recoveryMappings())
        if (c.name == "xor-far")
            specs.push_back({c.name, c.spec});
    ASSERT_EQ(specs.size(), mappingPresets().size() + 1);

    for (const auto &[name, spec] : specs) {
        for (std::uint32_t channels : {1u, 2u}) {
            MappingSpec sized = spec;
            if (channels == 2 && name == "xor-far") {
                // xor-far is spelled for one channel; at two it gains
                // the next physical bit as its channel function.
                const MappingFunction one(org, 1, spec);
                auto masks = one.masks();
                masks[static_cast<std::size_t>(
                    leaky::dram::Field::kChannel)] = {one.capacityBytes()};
                sized = MappingSpec::fromMasks(masks);
            }
            const MappingFunction fn(org, channels, sized);
            leaky::sim::Rng rng(31 * channels);
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t phys = rng.below(fn.capacityBytes());
                const Address a = fn.decode(phys);
                EXPECT_EQ(a.flat_bank,
                          org.flatBank(a.rank, a.bankgroup, a.bank))
                    << name << " @ " << channels << " channels";
                EXPECT_EQ(a.flat_group,
                          a.rank * org.bankgroups + a.bankgroup)
                    << name << " @ " << channels << " channels";
                const Address raw = fn.decodeLine(
                    phys / MappingFunction::kLineBytes);
                EXPECT_TRUE(raw.sameRow(a));
                EXPECT_EQ(raw.flat_bank, Address::kNoFlat);
            }
        }
    }
}

/** Apply @p ops random GF(2) row operations (add output row k to
 *  output row j) to a permutation matrix — each op is elementary, so
 *  the result is a uniform-ish random sample of invertible mappings
 *  reachable from the preset. */
std::array<std::vector<std::uint64_t>, kNumFields>
randomInvertibleMasks(const MappingFunction &base, leaky::sim::Rng &rng,
                      int ops)
{
    auto masks = base.masks();
    std::vector<std::pair<std::size_t, std::size_t>> rows;
    for (std::size_t i = 0; i < kNumFields; ++i)
        for (std::size_t j = 0; j < masks[i].size(); ++j)
            rows.push_back({i, j});
    for (int op = 0; op < ops; ++op) {
        const auto &dst = rows[rng.below(rows.size())];
        const auto &src = rows[rng.below(rows.size())];
        if (dst == src)
            continue;
        masks[dst.first][dst.second] ^= masks[src.first][src.second];
    }
    return masks;
}

TEST(MappingFunction, RandomInvertibleMatricesRoundTrip)
{
    Organization org;
    leaky::sim::Rng rng(2026);
    const MappingFunction base(org, 2, MappingSpec{});
    for (int trial = 0; trial < 20; ++trial) {
        const auto masks = randomInvertibleMasks(base, rng, 40);
        const MappingFunction fn(org, 2,
                                 MappingSpec::fromMasks(masks));
        for (int i = 0; i < 100; ++i) {
            // decode(compose(x)) == x...
            Address addr;
            addr.channel = static_cast<std::uint32_t>(rng.below(2));
            addr.rank =
                static_cast<std::uint32_t>(rng.below(org.ranks));
            addr.bankgroup =
                static_cast<std::uint32_t>(rng.below(org.bankgroups));
            addr.bank = static_cast<std::uint32_t>(
                rng.below(org.banks_per_group));
            addr.row = static_cast<std::uint32_t>(rng.below(org.rows));
            addr.column =
                static_cast<std::uint32_t>(rng.below(org.columns));
            const Address back = fn.decode(fn.compose(addr));
            EXPECT_TRUE(back.sameRow(addr));
            EXPECT_EQ(back.column, addr.column);
            EXPECT_EQ(back.channel, addr.channel);
            // ...and compose(decode(line)) == line.
            const std::uint64_t line =
                rng.below(std::uint64_t{1} << fn.totalBits());
            EXPECT_EQ(fn.composeLine(fn.decodeLine(line)), line);
        }
    }
}

// ------------------------------------------- compose of permutations

constexpr Field kFields[kNumFields] = {
    Field::kColumn, Field::kBankGroup,
    Field::kBank,   Field::kRank,
    Field::kRow,    Field::kChannel};

std::uint32_t &
digitOf(Address &addr, Field f)
{
    switch (f) {
      case Field::kColumn: return addr.column;
      case Field::kBankGroup: return addr.bankgroup;
      case Field::kBank: return addr.bank;
      case Field::kRank: return addr.rank;
      case Field::kRow: return addr.row;
      case Field::kChannel: break;
    }
    return addr.channel;
}

/** Coordinates drawn uniformly from @p fn's field ranges. */
Address
randomAddress(const MappingFunction &fn, leaky::sim::Rng &rng)
{
    Address addr;
    for (Field f : kFields)
        digitOf(addr, f) =
            static_cast<std::uint32_t>(rng.below(fn.fieldSize(f)));
    return addr;
}

/** composeLine of a bit permutation, read straight off masks(): each
 *  mask is one-hot, so digit bit j of field f lands on line bit
 *  ctz(masks()[f][j]) - 6. */
std::uint64_t
permutationOracle(const MappingFunction &fn, Address addr)
{
    const auto masks = fn.masks();
    std::uint64_t line = 0;
    for (Field f : kFields) {
        const auto &field_masks = masks[static_cast<std::size_t>(f)];
        const std::uint32_t digit = digitOf(addr, f);
        for (std::size_t j = 0; j < field_masks.size(); ++j) {
            EXPECT_EQ(__builtin_popcountll(field_masks[j]), 1);
            line |= std::uint64_t{(digit >> j) & 1u}
                    << (__builtin_ctzll(field_masks[j]) -
                        MappingFunction::kLineShift);
        }
    }
    return line;
}

std::string
orderText(const std::vector<Field> &order)
{
    std::string text = "order:";
    for (std::size_t i = 0; i < order.size(); ++i)
        text += std::string(i ? "," : "") + leaky::dram::fieldName(order[i]);
    return text;
}

/** The `order:` spelling of a permutation @p fn: fields sorted by the
 *  physical bit their lowest output bit copies (zero-width fields,
 *  which copy nothing, go last). */
std::string
orderSpelling(const MappingFunction &fn)
{
    const auto masks = fn.masks();
    std::vector<Field> order(std::begin(kFields),
                                          std::end(kFields));
    const auto low_bit = [&masks](Field f) {
        const auto &m = masks[static_cast<std::size_t>(f)];
        return m.empty() ? 64 : __builtin_ctzll(m.front());
    };
    std::stable_sort(order.begin(), order.end(),
                     [&low_bit](Field a,
                                Field b) {
                         return low_bit(a) < low_bit(b);
                     });
    return orderText(order);
}

/** Every permutation mapping composes by shifting digits into place;
 *  the result must equal the mask-derived oracle bit for bit. */
TEST(MappingFunction, PermutationComposeMatchesMaskOracle)
{
    Organization org;
    leaky::sim::Rng rng(404);
    for (std::uint32_t channels : {1u, 2u}) {
        std::vector<std::string> specs;
        for (const std::string &preset : mappingPresets()) {
            const MappingFunction fn(org, channels,
                                     MappingSpec::parse(preset));
            specs.push_back(preset);
            specs.push_back(orderSpelling(fn));
            specs.push_back(MappingSpec::fromMasks(fn.masks()).str());
        }
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<Field> order(std::begin(kFields),
                                                  std::end(kFields));
            for (std::size_t i = order.size() - 1; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            specs.push_back(orderText(order));
        }
        for (const std::string &text : specs) {
            const MappingFunction fn(org, channels,
                                     MappingSpec::parse(text));
            for (int i = 0; i < 300; ++i) {
                const Address addr = randomAddress(fn, rng);
                const std::uint64_t line = fn.composeLine(addr);
                ASSERT_EQ(line, permutationOracle(fn, addr))
                    << text << " @ " << channels << " channels";
                const Address back = fn.decodeLine(line);
                EXPECT_TRUE(back.sameRow(addr)) << text;
                EXPECT_EQ(back.column, addr.column) << text;
                EXPECT_EQ(back.channel, addr.channel) << text;
            }
        }
    }
}

/** The recovery figure's XOR mappings are not permutations and keep
 *  the general compose: it must still invert decodeLine. */
TEST(MappingFunction, XorRecoveryMappingsComposeRoundTrips)
{
    Organization org;
    leaky::sim::Rng rng(405);
    int xor_cases = 0;
    for (const auto &c : leaky::core::recoveryMappings()) {
        if (c.name.rfind("xor-", 0) != 0)
            continue;
        xor_cases += 1;
        const MappingFunction fn(org, 1, c.spec);
        for (int i = 0; i < 300; ++i) {
            const Address addr = randomAddress(fn, rng);
            const Address back = fn.decodeLine(fn.composeLine(addr));
            EXPECT_TRUE(back.sameRow(addr)) << c.name;
            EXPECT_EQ(back.column, addr.column) << c.name;
            const std::uint64_t line =
                rng.below(std::uint64_t{1} << fn.totalBits());
            EXPECT_EQ(fn.composeLine(fn.decodeLine(line)), line) << c.name;
        }
    }
    EXPECT_EQ(xor_cases, 3); // xor-near, xor-mid, xor-far.
}

/** decode() of a byte address: compose -> decode returns the random
 *  coordinates (any offset within the line), and the address wraps at
 *  capacityBytes() (a mask, not a modulo), for the three presets and
 *  an explicit `xor:` spec. */
TEST(MappingFunction, ByteAddressesRoundTripAndWrapAtCapacity)
{
    Organization org;
    std::vector<std::string> specs = mappingPresets();
    specs.push_back("xor:col=6:12;bg=13+20,14+21,15+22;ba=16,17;"
                    "ra=18+23;row=19:35");
    leaky::sim::Rng rng(2503);
    for (const std::string &text : specs) {
        const MappingFunction fn(org, 1, MappingSpec::parse(text));
        for (int i = 0; i < 300; ++i) {
            const Address addr = randomAddress(fn, rng);
            const std::uint64_t phys =
                fn.compose(addr) + rng.below(MappingFunction::kLineBytes);
            const Address back = fn.decode(phys);
            EXPECT_TRUE(back.sameRow(addr)) << text;
            EXPECT_EQ(back.column, addr.column) << text;
            EXPECT_EQ(back.flat_bank,
                      org.flatBank(addr.rank, addr.bankgroup, addr.bank))
                << text;
            const Address wrapped = fn.decode(phys + fn.capacityBytes());
            EXPECT_TRUE(wrapped.sameRow(back)) << text;
            EXPECT_EQ(wrapped.column, back.column) << text;
            EXPECT_EQ(wrapped.flat_bank, back.flat_bank) << text;
        }
    }
}

TEST(MappingFunctionDeath, RejectsNonInvertibleSpecs)
{
    Organization org;
    // ra reuses physical bit 13 (bg's) and line bit 18 goes unused:
    // two physical lines would alias onto one DRAM cell.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14,15;ba=16,17;ra=13;row=19:35")),
        "not invertible");
}

TEST(MappingFunctionDeath, RejectsWrongFieldWidths)
{
    Organization org; // bankgroups = 8 needs 3 bg output bits.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14;ba=16,17;ra=18;row=19:35")),
        "defines 2 output bits");
}

TEST(MappingFunctionDeath, RejectsInputBitsOutsideTheMappedRange)
{
    Organization org; // 1 channel: physical bits 6..35 are mapped.
    EXPECT_DEATH(
        MappingFunction(
            org, 1,
            MappingSpec::parse(
                "xor:col=6:12;bg=13,14,40;ba=16,17;ra=18;row=19:35")),
        "outside the mapped range");
}

TEST(MappingFunctionDeath, ComposeRangeCheckCoversBothPaths)
{
    Organization org;
    Address addr;
    addr.row = org.rows; // One past the end.
    // A permutation (shift-only compose)...
    EXPECT_DEATH(MappingFunction(org, 1,
                                 MappingSpec::parse(
                                     "order:ra,col,bg,ba,row,ch"))
                     .composeLine(addr),
                 "out of range");
    // ...and an XOR matrix (GF(2) compose).
    for (const auto &c : leaky::core::recoveryMappings()) {
        if (c.name == "xor-far") {
            EXPECT_DEATH(MappingFunction(org, 1, c.spec).composeLine(addr),
                         "out of range");
        }
    }
}

} // namespace
