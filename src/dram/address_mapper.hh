/**
 * @file
 * Forwarding header. The system's physical-address <-> DRAM-coordinate
 * mapping is dram::MappingFunction (see mapping.hh); this header and
 * its alias stay only because the end-to-end benchmark replay
 * (bench/e2e/replay.cc) includes it and names the type, and that
 * harness is kept byte-for-byte stable across changes it measures.
 */

#ifndef LEAKY_DRAM_ADDRESS_MAPPER_HH
#define LEAKY_DRAM_ADDRESS_MAPPER_HH

#include "dram/mapping.hh"

namespace leaky::dram {

using AddressMapper = MappingFunction;

} // namespace leaky::dram

#endif // LEAKY_DRAM_ADDRESS_MAPPER_HH
