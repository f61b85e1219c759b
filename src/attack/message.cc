#include "attack/message.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace leaky::attack {

std::vector<bool>
bitsFromString(const std::string &text)
{
    std::vector<bool> bits;
    bits.reserve(text.size() * 8);
    for (unsigned char c : text) {
        for (int b = 7; b >= 0; --b)
            bits.push_back(((c >> b) & 1) != 0);
    }
    return bits;
}

std::string
stringFromBits(const std::vector<bool> &bits)
{
    LEAKY_ASSERT(bits.size() % 8 == 0, "bit count %zu not byte aligned",
                 bits.size());
    std::string out;
    for (std::size_t i = 0; i < bits.size(); i += 8) {
        unsigned char c = 0;
        for (int b = 0; b < 8; ++b)
            c = static_cast<unsigned char>((c << 1) |
                                           (bits[i + b] ? 1 : 0));
        out.push_back(static_cast<char>(c));
    }
    return out;
}

std::vector<bool>
patternBits(MessagePattern pattern, std::size_t n_bits)
{
    std::vector<bool> bits(n_bits, false);
    sim::Rng rng(0x5EEDBEEF);
    for (std::size_t i = 0; i < n_bits; ++i) {
        switch (pattern) {
          case MessagePattern::kAllOnes: bits[i] = true; break;
          case MessagePattern::kAllZeros: bits[i] = false; break;
          case MessagePattern::kCheckered0: bits[i] = i % 2 == 1; break;
          case MessagePattern::kCheckered1: bits[i] = i % 2 == 0; break;
          case MessagePattern::kRandom: bits[i] = rng.chance(0.5); break;
        }
    }
    return bits;
}

namespace {

constexpr std::size_t kTernaryBlockBits = 19;
constexpr std::size_t kTernaryBlockDigits = 12; // 3^12 = 531441 > 2^19.

} // namespace

std::vector<std::uint8_t>
symbolsFromBits(const std::vector<bool> &bits, std::uint32_t levels)
{
    LEAKY_ASSERT(levels >= 2 && levels <= 4, "levels must be 2..4");
    std::vector<std::uint8_t> symbols;
    if (levels == 2) {
        for (bool b : bits)
            symbols.push_back(b ? 1 : 0);
        return symbols;
    }
    if (levels == 4) {
        for (std::size_t i = 0; i < bits.size(); i += 2) {
            std::uint8_t s = bits[i] ? 2 : 0;
            if (i + 1 < bits.size())
                s = static_cast<std::uint8_t>(s | (bits[i + 1] ? 1 : 0));
            symbols.push_back(s);
        }
        return symbols;
    }
    // Ternary: 19-bit blocks as 12 base-3 digits.
    for (std::size_t i = 0; i < bits.size(); i += kTernaryBlockBits) {
        std::uint32_t value = 0;
        for (std::size_t b = 0; b < kTernaryBlockBits; ++b) {
            value <<= 1;
            if (i + b < bits.size() && bits[i + b])
                value |= 1;
        }
        for (std::size_t d = 0; d < kTernaryBlockDigits; ++d) {
            symbols.push_back(static_cast<std::uint8_t>(value % 3));
            value /= 3;
        }
    }
    return symbols;
}

std::vector<bool>
bitsFromSymbols(const std::vector<std::uint8_t> &symbols,
                std::uint32_t levels, std::size_t n_bits)
{
    LEAKY_ASSERT(levels >= 2 && levels <= 4, "levels must be 2..4");
    std::vector<bool> bits;
    if (levels == 2) {
        for (auto s : symbols)
            bits.push_back(s != 0);
        bits.resize(n_bits, false);
        return bits;
    }
    if (levels == 4) {
        for (auto s : symbols) {
            bits.push_back((s & 2) != 0);
            bits.push_back((s & 1) != 0);
        }
        bits.resize(n_bits, false);
        return bits;
    }
    for (std::size_t i = 0; i < symbols.size(); i += kTernaryBlockDigits) {
        std::uint32_t value = 0;
        std::uint32_t scale = 1;
        for (std::size_t d = 0;
             d < kTernaryBlockDigits && i + d < symbols.size(); ++d) {
            value += symbols[i + d] % 3 * scale;
            scale *= 3;
        }
        for (std::size_t b = 0; b < kTernaryBlockBits; ++b) {
            bits.push_back(
                (value >> (kTernaryBlockBits - 1 - b) & 1) != 0);
        }
    }
    bits.resize(n_bits, false);
    return bits;
}

double
bitsPerSymbol(std::uint32_t levels)
{
    if (levels == 3) {
        return static_cast<double>(kTernaryBlockBits) /
               static_cast<double>(kTernaryBlockDigits);
    }
    return std::log2(static_cast<double>(levels));
}

} // namespace leaky::attack
