/**
 * @file
 * Physical-to-DRAM mapping functions as GF(2) linear maps. Real memory
 * controllers compute each DRAM coordinate bit as an XOR of selected
 * physical-address bits (DRAMA-style "XOR functions"); the bit
 * permutations the paper's presets describe are the special case where
 * every output bit copies exactly one input bit. §5.2 of the paper
 * assumes the attacker has reverse engineered such a function before
 * mounting the channel; attack::MappingRecovery learns one online.
 *
 * Three layers:
 *  - MappingSpec: the declarative description (a field order — the
 *    named presets are field orders — or an explicit `xor:` matrix) —
 *    cheap to copy/compare, geometry-independent, the type
 *    SystemConfig carries.
 *  - MappingFunction: the spec compiled against a concrete geometry
 *    into a validated GF(2) bit matrix with its inverse. Construction
 *    rejects non-invertible matrices. It is also the system's mapper
 *    (sys::System::mapper()): decode() fills the cached flat-bank
 *    indices, compose() is the attacker's page massaging.
 *  - gf2: the small Gaussian-elimination toolkit both the compiler and
 *    the mapping-recovery attacker use.
 */

#ifndef LEAKY_DRAM_MAPPING_HH
#define LEAKY_DRAM_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/config.hh"
#include "dram/types.hh"

namespace leaky::dram {

/** Address fields a mapping function produces. */
enum class Field : std::uint8_t {
    kColumn, kBankGroup, kBank, kRank, kRow, kChannel
};

/** Number of coordinate fields (the size of a full order array). */
inline constexpr std::size_t kNumFields = 6;

/** Grammar/CSV name of a field ("col", "bg", "ba", "ra", "row", "ch"). */
const char *fieldName(Field f);

/**
 * Names of the preset mappings (the reverse-engineering targets of
 * §5.2), in a stable order: a name's position in this list is its
 * CSV encoding (0, 1, 2) in the `mapping-order` figure. Each preset is
 * a named field order — a pure bit permutation, spelled
 * `order:...` as well — defined in mapping.cc.
 */
const std::vector<std::string> &mappingPresets();

// ------------------------------------------------------------ gf2 utils

/** GF(2) linear algebra over <= 64-dimensional bit vectors. Vectors
 *  are uint64 masks; used by the mapping compiler (invertibility, the
 *  inverse matrix) and by the mapping-recovery solver. */
namespace gf2 {

/** An incrementally built row-echelon basis of a subspace. */
class BitBasis
{
  public:
    /** Reduce @p v by the basis; the non-zero remainder (or 0 if @p v
     *  is in the span). */
    std::uint64_t reduce(std::uint64_t v) const;

    /** Insert @p v; returns true if it extended the span. */
    bool insert(std::uint64_t v);

    bool contains(std::uint64_t v) const { return reduce(v) == 0; }
    std::size_t rank() const { return rows_.size(); }
    const std::vector<std::uint64_t> &rows() const { return rows_; }

    /** True iff both bases span the same subspace. */
    bool sameSpan(const BitBasis &other) const;

    void clear() { rows_.clear(); }

  private:
    /** Echelon rows, strictly decreasing leading bit. */
    std::vector<std::uint64_t> rows_;
};

/** Basis of the annihilator {m : m & v has even parity for all v in
 *  span(@p basis)} within an @p nbits-dimensional space. Its rank is
 *  nbits - basis.rank(). */
std::vector<std::uint64_t> annihilator(const BitBasis &basis,
                                       std::uint32_t nbits);

} // namespace gf2

// ----------------------------------------------------------- MappingSpec

/**
 * Declarative mapping description — what SystemConfig carries and the
 * CLI parses. Either:
 *  - a field order, least to most significant: a preset name
 *    (`"row-interleaved"`, see mappingPresets()) or a custom
 *    `"order:col,bg,ba,ra,row,ch"` list;
 *  - an explicit XOR matrix (`"xor:..."`, grammar below).
 *
 * `xor:` grammar — semicolon-separated field definitions:
 *
 *     xor:col=6:12;bg=13+19,14,15;ba=16,17;ra=18;row=19:35
 *
 *  - each field (`col`/`bg`/`ba`/`ra`/`row`/`ch`) lists one term per
 *    output bit, LSB first, comma-separated;
 *  - a term is an XOR of physical-address bit indices joined by `+`
 *    (`13+19` = bit 13 XOR bit 19);
 *  - `lo:hi` is shorthand for the identity run `lo,lo+1,...,hi`;
 *  - bits 0-5 address bytes within the 64-byte line and cannot appear;
 *  - omitted fields have zero width (e.g. `ch` on a 1-channel system).
 *
 * Geometry checks (field widths must match log2 of the organisation's
 * sizes; the matrix must be invertible) happen when the spec is
 * compiled into a MappingFunction — a spec alone is geometry-free.
 * Equality is canonical-text equality: specs are normalized at
 * construction (an order equal to a preset's prints as the preset
 * name; xor fields in canonical order, bits ascending), so two
 * spellings of the same spec compare equal, but a field order never
 * equals the `xor:` spelling of the same function.
 */
class MappingSpec
{
  public:
    /** Defaults to the paper's row-interleaved mapping. */
    MappingSpec();

    /** Explicit XOR matrix from per-field output-bit masks over
     *  physical address bits (masks[field][j] = inputs of output bit
     *  j). The programmatic equivalent of the `xor:` text form. */
    static MappingSpec
    fromMasks(const std::array<std::vector<std::uint64_t>, kNumFields>
                  &masks);

    /** Parse a preset name, `order:` list, or `xor:` matrix. Returns
     *  false (with a message in @p error) on bad syntax. */
    static bool tryParse(const std::string &text, MappingSpec *out,
                         std::string *error);

    /** tryParse or panic — for trusted (non-CLI) call sites. */
    static MappingSpec parse(const std::string &text);

    /** Canonical spelling: the preset name, `order:...`, or a
     *  normalized `xor:...` string. Stable for CSV/CLI round trips:
     *  parse(str()) == *this. */
    const std::string &str() const { return text_; }

    bool
    operator==(const MappingSpec &other) const
    {
        return text_ == other.text_;
    }
    bool
    operator!=(const MappingSpec &other) const
    {
        return !(*this == other);
    }

  private:
    /** MappingFunction compiles the order or masks below. */
    friend class MappingFunction;

    explicit MappingSpec(const std::array<Field, kNumFields> &order);
    explicit MappingSpec(
        std::array<std::vector<std::uint64_t>, kNumFields> masks);

    bool is_xor_ = false;
    /** Field order, least to most significant (order specs). */
    std::array<Field, kNumFields> order_{};
    /** Per-field XOR masks over physical bits (xor specs): one entry
     *  per output bit, LSB first; empty = zero-width field. */
    std::array<std::vector<std::uint64_t>, kNumFields> masks_{};
    std::string text_;
};

// ------------------------------------------------------- MappingFunction

/**
 * A MappingSpec compiled against a concrete geometry: the invertible
 * GF(2) matrix mapping line-index bits to coordinate-field bits, plus
 * its inverse for compose(). Requires power-of-two field sizes (an XOR
 * of bits can only permute a power-of-two space); construction panics
 * on non-power-of-two geometry, on field widths that do not match the
 * organisation, on out-of-range input bits, and on matrices without an
 * inverse — a non-invertible function would alias two physical lines
 * onto one DRAM cell and silently corrupt decode/compose round trips.
 */
class MappingFunction
{
  public:
    static constexpr std::uint32_t kLineBytes = 64;
    /** log2(kLineBytes): physical bits below this address bytes within
     *  a line and never enter the function. */
    static constexpr std::uint32_t kLineShift = 6;

    MappingFunction(const Organization &org, std::uint32_t channels,
                    const MappingSpec &spec);

    /** Decode a line index (phys / 64, already wrapped to capacity)
     *  into coordinates. Flat-bank caches are NOT filled here. */
    Address decodeLine(std::uint64_t line) const;

    /** Encode coordinates into a line index (asserts field ranges). */
    std::uint64_t composeLine(const Address &addr) const;

    /** Decode a physical byte address (wrapped to capacity, offset
     *  within the line ignored) and fill the cached flat bank/group
     *  indices the channel, scheduler and defense hot paths read. */
    Address
    decode(std::uint64_t phys_addr) const
    {
        Address out =
            decodeLine((phys_addr % capacityBytes()) / kLineBytes);
        org_.annotate(out);
        return out;
    }

    /** Encode coordinates into a physical (line-aligned) address —
     *  how attack processes massage pages into chosen rows/banks. */
    std::uint64_t
    compose(const Address &addr) const
    {
        return composeLine(addr) * kLineBytes;
    }

    const MappingSpec &spec() const { return spec_; }
    /** Channel geometry this function was compiled against. */
    const Organization &org() const { return org_; }
    std::uint32_t channels() const { return channels_; }

    /** Mapped line bits: capacityBytes() == 64 << totalBits(). */
    std::uint32_t totalBits() const { return total_bits_; }
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t{kLineBytes} << total_bits_;
    }

    std::uint32_t fieldWidth(Field f) const;
    std::uint32_t fieldSize(Field f) const; ///< 1u << fieldWidth(f).

    /** The compiled matrix as per-field XOR masks over PHYSICAL
     *  address bits: masks()[f][j] feeds output bit j of field f. The
     *  ground truth the mapping-recovery figure grades the attacker
     *  against; MappingSpec::fromMasks(masks()) re-spells any
     *  function as an explicit `xor:` spec. */
    std::array<std::vector<std::uint64_t>, kNumFields> masks() const;

  private:
    std::uint32_t fieldOffset(Field f) const;
    void compileOrder(const std::array<Field, kNumFields> &order);
    void compileMasks(
        const std::array<std::vector<std::uint64_t>, kNumFields> &masks);
    void invert();

    MappingSpec spec_;
    Organization org_;
    std::uint32_t channels_ = 1;
    std::uint32_t total_bits_ = 0;
    /** Field widths / packed offsets in canonical field order. */
    std::array<std::uint32_t, kNumFields> widths_{};
    std::array<std::uint32_t, kNumFields> offsets_{};
    /** Forward rows: coordinate bit k = parity(fwd_[k] & line). */
    std::vector<std::uint64_t> fwd_;
    /** Inverse rows: line bit i = parity(inv_[i] & packed coords). */
    std::vector<std::uint64_t> inv_;
    /** Per-field fast path: when a field's rows are one contiguous
     *  identity run (every preset/order mapping), decode is a single
     *  shift+mask instead of width parity reductions. */
    std::array<std::int32_t, kNumFields> plain_shift_{};
    /** Every field is plain (the function is a bit permutation), so
     *  compose is a shift+or per field instead of the inverse's
     *  total_bits_ parity reductions. */
    bool all_plain_ = false;
};

} // namespace leaky::dram

#endif // LEAKY_DRAM_MAPPING_HH
