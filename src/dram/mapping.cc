#include "dram/mapping.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "sim/logging.hh"

namespace leaky::dram {

namespace {

/** Canonical presentation order of fields in specs and packed
 *  coordinate vectors (== enum order). */
constexpr Field kCanonicalFields[kNumFields] = {
    Field::kColumn, Field::kBankGroup, Field::kBank,
    Field::kRank,   Field::kRow,       Field::kChannel};

std::size_t
indexOf(Field f)
{
    return static_cast<std::size_t>(f);
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::uint32_t
log2OfPow2(std::uint64_t v)
{
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        bits += 1;
    }
    return bits;
}

std::uint32_t
parity(std::uint64_t v)
{
    return static_cast<std::uint32_t>(__builtin_popcountll(v)) & 1u;
}

} // namespace

const char *
fieldName(Field f)
{
    switch (f) {
      case Field::kColumn: return "col";
      case Field::kBankGroup: return "bg";
      case Field::kBank: return "ba";
      case Field::kRank: return "ra";
      case Field::kRow: return "row";
      case Field::kChannel: return "ch";
    }
    sim::panic("unknown address field");
}

namespace {

/** A named field order (least to most significant). The presets only
 *  differ in observable behaviour when traffic is generated in
 *  *physical* addresses — attacks that compose coordinates through the
 *  system's own mapping are order-invariant by construction, which is
 *  exactly what the `mapping-order` figure exploits to model attackers
 *  with a *wrong* mapping assumption. */
struct Preset {
    const char *name;
    std::array<Field, kNumFields> order;
};

/** Position = the CSV encoding mappingPresets() documents. */
constexpr Preset kPresets[] = {
    // The default: consecutive lines walk a row, then interleave bank
    // groups.
    {"row-interleaved",
     {Field::kColumn, Field::kBankGroup, Field::kBank, Field::kRank,
      Field::kRow, Field::kChannel}},
    // Bank bits at the LSB end, so consecutive lines stripe across
    // banks first.
    {"bank-first",
     {Field::kBankGroup, Field::kBank, Field::kRank, Field::kColumn,
      Field::kRow, Field::kChannel}},
    // Channel stays the most-significant field but each bank's rows
    // are physically contiguous below it (no bank interleaving).
    {"channel-last",
     {Field::kColumn, Field::kRow, Field::kBankGroup, Field::kBank,
      Field::kRank, Field::kChannel}},
};

} // namespace

const std::vector<std::string> &
mappingPresets()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Preset &preset : kPresets)
            out.push_back(preset.name);
        return out;
    }();
    return names;
}

// -------------------------------------------------------------- gf2 utils

namespace gf2 {

std::uint64_t
BitBasis::reduce(std::uint64_t v) const
{
    for (std::uint64_t row : rows_) {
        if (v == 0)
            return 0;
        // Rows are in strictly decreasing leading-bit order; XOR when
        // the row's leading bit is set in the remainder.
        const int top = 63 - __builtin_clzll(row);
        if ((v >> top) & 1u)
            v ^= row;
    }
    return v;
}

bool
BitBasis::insert(std::uint64_t v)
{
    v = reduce(v);
    if (v == 0)
        return false;
    const int top = 63 - __builtin_clzll(v);
    // Keep echelon order (strictly decreasing leading bit) so reduce()
    // stays a single forward pass.
    auto it = rows_.begin();
    while (it != rows_.end() && (63 - __builtin_clzll(*it)) > top)
        ++it;
    rows_.insert(it, v);
    return true;
}

bool
BitBasis::sameSpan(const BitBasis &other) const
{
    if (rank() != other.rank())
        return false;
    for (std::uint64_t row : rows_)
        if (!other.contains(row))
            return false;
    return true;
}

std::vector<std::uint64_t>
annihilator(const BitBasis &basis, std::uint32_t nbits)
{
    LEAKY_ASSERT(nbits <= 64, "gf2 vectors are at most 64-dimensional");
    // Gauss-Jordan on the basis rows to find, for each non-pivot
    // column pattern, a mask orthogonal to every row. Equivalent,
    // simpler formulation: a mask m is in the annihilator iff
    // parity(m & row) == 0 for every (reduced) row; solve by treating
    // each candidate unit bit and eliminating.
    std::vector<std::uint64_t> rows = basis.rows();
    // Reduce to RREF: clear each pivot bit from every other row.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const int pivot = 63 - __builtin_clzll(rows[i]);
        for (std::size_t j = 0; j < rows.size(); ++j) {
            if (j != i && ((rows[j] >> pivot) & 1u))
                rows[j] ^= rows[i];
        }
    }
    std::uint64_t pivots = 0;
    for (std::uint64_t row : rows)
        pivots |= std::uint64_t{1} << (63 - __builtin_clzll(row));

    // One annihilator vector per free (non-pivot) column c: bit c set,
    // plus, for every row whose pivot is p and which has column c set,
    // bit p set — the standard null-space construction, transposed to
    // the orthogonal-complement problem via the RREF symmetry.
    std::vector<std::uint64_t> out;
    for (std::uint32_t c = 0; c < nbits; ++c) {
        if ((pivots >> c) & 1u)
            continue;
        std::uint64_t m = std::uint64_t{1} << c;
        for (std::uint64_t row : rows) {
            const int pivot = 63 - __builtin_clzll(row);
            if ((row >> c) & 1u)
                m |= std::uint64_t{1} << pivot;
        }
        out.push_back(m);
    }
    return out;
}

} // namespace gf2

// ------------------------------------------------------------ MappingSpec

namespace {

constexpr const char *kOrderPrefix = "order:";
constexpr const char *kXorPrefix = "xor:";

std::string
orderText(const std::array<Field, kNumFields> &order)
{
    for (const Preset &preset : kPresets)
        if (order == preset.order)
            return preset.name;
    std::string text = kOrderPrefix;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0)
            text += ",";
        text += fieldName(order[i]);
    }
    return text;
}

std::string
xorText(const std::array<std::vector<std::uint64_t>, kNumFields> &masks)
{
    std::string text = kXorPrefix;
    bool first_field = true;
    for (Field f : kCanonicalFields) {
        const auto &field_masks = masks[indexOf(f)];
        if (field_masks.empty())
            continue;
        if (!first_field)
            text += ";";
        first_field = false;
        text += fieldName(f);
        text += "=";
        for (std::size_t j = 0; j < field_masks.size(); ++j) {
            if (j > 0)
                text += ",";
            std::uint64_t m = field_masks[j];
            bool first_bit = true;
            while (m != 0) {
                const int bit = __builtin_ctzll(m);
                m &= m - 1;
                if (!first_bit)
                    text += "+";
                first_bit = false;
                text += std::to_string(bit);
            }
        }
    }
    return text;
}

bool
fieldByName(const std::string &name, Field *out)
{
    for (Field f : kCanonicalFields) {
        if (name == fieldName(f)) {
            *out = f;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        parts.push_back(text.substr(start, pos - start));
        if (pos == std::string::npos)
            return parts;
        start = pos + 1;
    }
}

bool
parseBit(const std::string &token, std::uint32_t *out,
         std::string *error)
{
    if (token.empty() || token.size() > 2 ||
        !std::all_of(token.begin(), token.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
        *error = "expected a physical bit index, got '" + token + "'";
        return false;
    }
    const unsigned long value = std::stoul(token);
    if (value < MappingFunction::kLineShift) {
        *error = "bit " + token + " addresses bytes within a cache "
                 "line (bits 0-5 never enter the mapping)";
        return false;
    }
    if (value >= 64) {
        *error = "bit " + token + " is out of the 64-bit address range";
        return false;
    }
    *out = static_cast<std::uint32_t>(value);
    return true;
}

bool
parseXorBody(const std::string &body,
             std::array<std::vector<std::uint64_t>, kNumFields> *masks,
             std::string *error)
{
    if (body.empty()) {
        *error = "empty xor: spec";
        return false;
    }
    std::uint32_t seen = 0;
    for (const std::string &field_def : splitOn(body, ';')) {
        const std::size_t eq = field_def.find('=');
        if (eq == std::string::npos) {
            *error = "field definition '" + field_def +
                     "' has no '='";
            return false;
        }
        Field field;
        if (!fieldByName(field_def.substr(0, eq), &field)) {
            *error = "unknown field '" + field_def.substr(0, eq) +
                     "' (use col/bg/ba/ra/row/ch)";
            return false;
        }
        if (seen & (1u << indexOf(field))) {
            *error = std::string("duplicate field '") +
                     fieldName(field) + "'";
            return false;
        }
        seen |= 1u << indexOf(field);
        auto &out = (*masks)[indexOf(field)];
        const std::string terms = field_def.substr(eq + 1);
        if (terms.empty())
            continue; // Explicit zero-width field.
        for (const std::string &term : splitOn(terms, ',')) {
            const std::size_t colon = term.find(':');
            if (colon != std::string::npos) {
                // lo:hi — an identity run, one output bit per input.
                std::uint32_t lo = 0, hi = 0;
                if (!parseBit(term.substr(0, colon), &lo, error) ||
                    !parseBit(term.substr(colon + 1), &hi, error))
                    return false;
                if (lo > hi) {
                    *error = "descending range '" + term + "'";
                    return false;
                }
                for (std::uint32_t bit = lo; bit <= hi; ++bit)
                    out.push_back(std::uint64_t{1} << bit);
                continue;
            }
            std::uint64_t mask = 0;
            for (const std::string &token : splitOn(term, '+')) {
                std::uint32_t bit = 0;
                if (!parseBit(token, &bit, error))
                    return false;
                const std::uint64_t b = std::uint64_t{1} << bit;
                if (mask & b) {
                    *error = "bit " + token + " appears twice in '" +
                             term + "' (an XOR of a bit with itself "
                             "cancels)";
                    return false;
                }
                mask |= b;
            }
            out.push_back(mask);
        }
    }
    return true;
}

} // namespace

MappingSpec::MappingSpec() : MappingSpec(kPresets[0].order) {}

MappingSpec::MappingSpec(const std::array<Field, kNumFields> &order)
    : order_(order), text_(orderText(order))
{
}

MappingSpec::MappingSpec(
    std::array<std::vector<std::uint64_t>, kNumFields> masks)
    : is_xor_(true), masks_(std::move(masks)), text_(xorText(masks_))
{
}

MappingSpec
MappingSpec::fromMasks(
    const std::array<std::vector<std::uint64_t>, kNumFields> &masks)
{
    for (const auto &field_masks : masks)
        for (std::uint64_t mask : field_masks)
            LEAKY_ASSERT(
                mask != 0 &&
                    (mask &
                     ((std::uint64_t{1} << MappingFunction::kLineShift) -
                      1)) == 0,
                "mapping masks must use physical bits >= %u",
                MappingFunction::kLineShift);
    return MappingSpec(masks);
}

bool
MappingSpec::tryParse(const std::string &text, MappingSpec *out,
                      std::string *error)
{
    for (const Preset &preset : kPresets) {
        if (text == preset.name) {
            *out = MappingSpec(preset.order);
            return true;
        }
    }
    const std::string order_prefix = kOrderPrefix;
    if (text.rfind(order_prefix, 0) == 0) {
        const auto names =
            splitOn(text.substr(order_prefix.size()), ',');
        if (names.size() != kNumFields) {
            *error = "order: needs all " +
                     std::to_string(kNumFields) + " fields";
            return false;
        }
        std::array<Field, kNumFields> order{};
        std::uint32_t seen = 0;
        for (std::size_t i = 0; i < kNumFields; ++i) {
            if (!fieldByName(names[i], &order[i])) {
                *error = "unknown field '" + names[i] + "'";
                return false;
            }
            if (seen & (1u << indexOf(order[i]))) {
                *error = "duplicate field '" + names[i] + "'";
                return false;
            }
            seen |= 1u << indexOf(order[i]);
        }
        *out = MappingSpec(order);
        return true;
    }
    const std::string xor_prefix = kXorPrefix;
    if (text.rfind(xor_prefix, 0) == 0) {
        std::array<std::vector<std::uint64_t>, kNumFields> masks{};
        if (!parseXorBody(text.substr(xor_prefix.size()), &masks,
                          error))
            return false;
        *out = fromMasks(masks);
        return true;
    }
    *error = "unknown mapping '" + text +
             "' (expected a preset name, order:..., or xor:...)";
    return false;
}

MappingSpec
MappingSpec::parse(const std::string &text)
{
    MappingSpec spec;
    std::string error;
    if (!tryParse(text, &spec, &error))
        sim::panic("bad mapping spec: %s", error.c_str());
    return spec;
}

// -------------------------------------------------------- MappingFunction

MappingFunction::MappingFunction(const Organization &org,
                                 std::uint32_t channels,
                                 const MappingSpec &spec)
    : spec_(spec), org_(org), channels_(channels)
{
    LEAKY_ASSERT(channels_ > 0, "need at least one channel");
    const std::array<std::uint64_t, kNumFields> sizes = {
        org.columns, org.bankgroups, org.banks_per_group,
        org.ranks,   org.rows,       channels_};
    total_bits_ = 0;
    for (Field f : kCanonicalFields) {
        const std::uint64_t size = sizes[indexOf(f)];
        LEAKY_ASSERT(isPow2(size),
                     "XOR mapping functions need a power-of-two "
                     "geometry; field %s has size %llu",
                     fieldName(f),
                     static_cast<unsigned long long>(size));
        widths_[indexOf(f)] = log2OfPow2(size);
        field_mask_[indexOf(f)] =
            static_cast<std::uint32_t>(size - 1);
    }
    for (Field f : kCanonicalFields) {
        offsets_[indexOf(f)] = total_bits_;
        total_bits_ += widths_[indexOf(f)];
    }
    LEAKY_ASSERT(total_bits_ >= 1 && total_bits_ + kLineShift <= 63,
                 "mapped address space out of range (%u line bits)",
                 total_bits_);
    fwd_.assign(total_bits_, 0);
    if (spec_.is_xor_)
        compileMasks(spec_.masks_);
    else
        compileOrder(spec_.order_);
    invert();

    // Plain-field fast path: a field whose forward rows are one
    // contiguous identity run decodes with a shift+mask and composes
    // with a shift+or; every preset/order mapping is all-plain, which
    // keeps the legacy family's decode cost unchanged.
    for (Field f : kCanonicalFields) {
        const std::size_t fi = indexOf(f);
        plain_shift_[fi] = -1;
        const std::uint32_t width = widths_[fi];
        if (width == 0) {
            plain_shift_[fi] = 0;
            continue;
        }
        const std::uint64_t first = fwd_[offsets_[fi]];
        if (__builtin_popcountll(first) != 1)
            continue;
        const int shift = __builtin_ctzll(first);
        bool plain = true;
        for (std::uint32_t j = 0; j < width; ++j) {
            if (fwd_[offsets_[fi] + j] !=
                std::uint64_t{1} << (shift + j)) {
                plain = false;
                break;
            }
        }
        if (plain)
            plain_shift_[fi] = shift;
    }
    all_plain_ = std::all_of(plain_shift_.begin(), plain_shift_.end(),
                             [](std::int32_t shift) { return shift >= 0; });
}

void
MappingFunction::compileOrder(const std::array<Field, kNumFields> &order)
{
    // Least-to-most significant: slot i's field takes the next
    // width(f) line bits — exactly the mixed-radix digit layout of
    // the legacy mapper for power-of-two sizes.
    std::uint32_t line_bit = 0;
    for (Field f : order) {
        const std::size_t fi = indexOf(f);
        for (std::uint32_t j = 0; j < widths_[fi]; ++j) {
            fwd_[offsets_[fi] + j] = std::uint64_t{1} << line_bit;
            line_bit += 1;
        }
    }
}

void
MappingFunction::compileMasks(
    const std::array<std::vector<std::uint64_t>, kNumFields> &masks)
{
    for (Field f : kCanonicalFields) {
        const std::size_t fi = indexOf(f);
        LEAKY_ASSERT(
            masks[fi].size() == widths_[fi],
            "mapping '%s': field %s defines %zu output bits but the "
            "geometry needs %u",
            spec_.str().c_str(), fieldName(f), masks[fi].size(),
            widths_[fi]);
        for (std::uint32_t j = 0; j < widths_[fi]; ++j) {
            const std::uint64_t phys_mask = masks[fi][j];
            const std::uint64_t line_mask = phys_mask >> kLineShift;
            LEAKY_ASSERT(
                (line_mask << kLineShift) == phys_mask &&
                    line_mask < (std::uint64_t{1} << total_bits_),
                "mapping '%s': field %s bit %u uses physical bits "
                "outside the mapped range [%u, %u)",
                spec_.str().c_str(), fieldName(f), j, kLineShift,
                kLineShift + total_bits_);
            fwd_[offsets_[fi] + j] = line_mask;
        }
    }
}

void
MappingFunction::invert()
{
    // Gauss-Jordan over GF(2): eliminate [fwd | I] to [I | inv]. A
    // singular matrix has no inverse — two physical lines would alias
    // onto one DRAM cell — and is rejected here, mirroring the legacy
    // "order must be a permutation" construction assert.
    std::vector<std::uint64_t> m = fwd_;
    inv_.assign(total_bits_, 0);
    for (std::uint32_t i = 0; i < total_bits_; ++i)
        inv_[i] = std::uint64_t{1} << i;
    for (std::uint32_t col = 0; col < total_bits_; ++col) {
        std::uint32_t pivot = col;
        while (pivot < total_bits_ && !((m[pivot] >> col) & 1u))
            pivot += 1;
        LEAKY_ASSERT(pivot < total_bits_,
                     "mapping '%s' is not invertible (no pivot for "
                     "line bit %u): it aliases distinct physical "
                     "lines onto one DRAM cell",
                     spec_.str().c_str(), col);
        std::swap(m[col], m[pivot]);
        std::swap(inv_[col], inv_[pivot]);
        for (std::uint32_t row = 0; row < total_bits_; ++row) {
            if (row != col && ((m[row] >> col) & 1u)) {
                m[row] ^= m[col];
                inv_[row] ^= inv_[col];
            }
        }
    }
    // m is now the identity; inv_ rows are indexed by line bit, but
    // eliminated in coordinate space: row i of inv_ gives line bit i
    // as a parity over coordinate bits. The elimination above
    // produced the inverse in row order matching the pivots, i.e.
    // inv_[i] is the solve for line bit i directly.
}

std::uint32_t
MappingFunction::fieldOffset(Field f) const
{
    return offsets_[indexOf(f)];
}

std::uint32_t
MappingFunction::fieldWidth(Field f) const
{
    return widths_[indexOf(f)];
}

std::uint32_t
MappingFunction::fieldSize(Field f) const
{
    return 1u << widths_[indexOf(f)];
}

std::array<std::vector<std::uint64_t>, kNumFields>
MappingFunction::masks() const
{
    std::array<std::vector<std::uint64_t>, kNumFields> out{};
    for (Field f : kCanonicalFields)
        for (std::uint32_t j = 0; j < fieldWidth(f); ++j)
            out[indexOf(f)].push_back(fwd_[fieldOffset(f) + j]
                                      << kLineShift);
    return out;
}

Address
MappingFunction::decodeLine(std::uint64_t line) const
{
    LEAKY_DCHECK(line < (std::uint64_t{1} << total_bits_),
                 "line index out of mapped range");
    Address out;
    if (all_plain_) {
        // A bit permutation: every field is one shift and mask.
        const auto digit = [&](Field f) {
            const std::size_t fi = indexOf(f);
            return static_cast<std::uint32_t>(line >> plain_shift_[fi]) &
                   field_mask_[fi];
        };
        out.column = digit(Field::kColumn);
        out.bankgroup = digit(Field::kBankGroup);
        out.bank = digit(Field::kBank);
        out.rank = digit(Field::kRank);
        out.row = digit(Field::kRow);
        out.channel = digit(Field::kChannel);
        return out;
    }
    for (Field f : kCanonicalFields) {
        const std::size_t fi = indexOf(f);
        const std::uint32_t width = widths_[fi];
        std::uint32_t digit;
        if (plain_shift_[fi] >= 0) {
            digit = static_cast<std::uint32_t>(line >> plain_shift_[fi]) &
                    field_mask_[fi];
        } else {
            digit = 0;
            for (std::uint32_t j = 0; j < width; ++j)
                digit |= parity(fwd_[offsets_[fi] + j] & line) << j;
        }
        switch (f) {
          case Field::kColumn: out.column = digit; break;
          case Field::kBankGroup: out.bankgroup = digit; break;
          case Field::kBank: out.bank = digit; break;
          case Field::kRank: out.rank = digit; break;
          case Field::kRow: out.row = digit; break;
          case Field::kChannel: out.channel = digit; break;
        }
    }
    return out;
}

std::uint64_t
MappingFunction::composeLine(const Address &addr) const
{
    std::uint64_t coords = 0;
    for (Field f : kCanonicalFields) {
        std::uint32_t digit = 0;
        switch (f) {
          case Field::kColumn: digit = addr.column; break;
          case Field::kBankGroup: digit = addr.bankgroup; break;
          case Field::kBank: digit = addr.bank; break;
          case Field::kRank: digit = addr.rank; break;
          case Field::kRow: digit = addr.row; break;
          case Field::kChannel: digit = addr.channel; break;
        }
        LEAKY_ASSERT(digit < fieldSize(f), "field %d out of range",
                     static_cast<int>(f));
        // A permutation places each digit's bits as one run in the
        // line; the general path solves the GF(2) system instead.
        if (all_plain_)
            coords |= std::uint64_t{digit} << plain_shift_[indexOf(f)];
        else
            coords |= std::uint64_t{digit} << offsets_[indexOf(f)];
    }
    if (all_plain_)
        return coords;
    std::uint64_t line = 0;
    for (std::uint32_t i = 0; i < total_bits_; ++i)
        line |= std::uint64_t{parity(inv_[i] & coords)} << i;
    return line;
}

} // namespace leaky::dram
