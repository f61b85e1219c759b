/**
 * @file
 * Message encoding helpers for the covert channels: string <-> bit
 * conversion (the paper transmits the 40-bit "MICRO"), the four test
 * patterns of §6.3/§7.3, and bit <-> symbol packing for the multibit
 * (ternary/quaternary) channels.
 */

#ifndef LEAKY_ATTACK_MESSAGE_HH
#define LEAKY_ATTACK_MESSAGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace leaky::attack {

/** The four benchmark message patterns (paper §6.3) plus a seeded
 *  random payload (for multibit evaluations on realistic data). */
enum class MessagePattern : std::uint8_t {
    kAllOnes,
    kAllZeros,
    kCheckered0, ///< 0101...01
    kCheckered1, ///< 1010...10
    kRandom      ///< Seeded pseudo-random payload.
};

/** MSB-first bits of an ASCII string. */
std::vector<bool> bitsFromString(const std::string &text);

/** Inverse of bitsFromString (bit count must be a multiple of 8). */
std::string stringFromBits(const std::vector<bool> &bits);

/** Generate @p n_bits of a benchmark pattern. */
std::vector<bool> patternBits(MessagePattern pattern, std::size_t n_bits);

/**
 * Pack bits into base-`levels` symbols (levels = 2, 3, or 4). For the
 * non-power-of-two ternary channel, bits are grouped as base-3 digits of
 * 19-bit blocks (3^12 > 2^19), giving 19/12 = 1.58 bits per symbol as in
 * the paper.
 */
std::vector<std::uint8_t> symbolsFromBits(const std::vector<bool> &bits,
                                          std::uint32_t levels);

/** Unpack symbols back into bits (inverse of symbolsFromBits). */
std::vector<bool> bitsFromSymbols(const std::vector<std::uint8_t> &symbols,
                                  std::uint32_t levels,
                                  std::size_t n_bits);

/** Effective bits per transmitted symbol for a given level count. */
double bitsPerSymbol(std::uint32_t levels);

} // namespace leaky::attack

#endif // LEAKY_ATTACK_MESSAGE_HH
