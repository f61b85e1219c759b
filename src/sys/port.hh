/**
 * @file
 * The narrow interface through which cores, attacker agents, and trace
 * replayers talk to the memory system. Keeping agents behind MemoryPort
 * lets the attack library run against any System configuration (and
 * against mocks in unit tests).
 */

#ifndef LEAKY_SYS_PORT_HH
#define LEAKY_SYS_PORT_HH

#include <cstdint>
#include <functional>

#include "dram/mapping.hh"
#include "sim/tick.hh"

namespace leaky::sim {
class Event;
} // namespace leaky::sim

namespace leaky::sys {

using sim::Tick;

/** Access point into the simulated memory system. */
class MemoryPort
{
  public:
    using ReadCallback = std::function<void(Tick data_ready)>;

    virtual ~MemoryPort() = default;

    /** Current simulated time. */
    virtual Tick now() const = 0;

    /** Run @p fn after @p delay ticks (models compute/sleep phases). */
    virtual void schedule(Tick delay, std::function<void()> fn) = 0;

    /** Run bound event @p ev after @p delay ticks; it must not be
     *  pending. A component's own recurring timer schedules this way
     *  without building a callable each time. */
    virtual void schedule(Tick delay, sim::Event &ev) = 0;

    /**
     * Issue a cache-bypassing read (the attacks clflush first, so their
     * loads are always served by DRAM). Retries transparently when the
     * controller queue is full. @p cb fires when data is back at the
     * requestor.
     */
    virtual void issueRead(std::uint64_t phys_addr, std::int32_t source,
                           ReadCallback cb) = 0;

    /** Issue a posted write. */
    virtual void issueWrite(std::uint64_t phys_addr,
                            std::int32_t source) = 0;

    /** Physical-address <-> DRAM-coordinate mapping. */
    virtual const dram::MappingFunction &mapper() const = 0;
};

} // namespace leaky::sys

#endif // LEAKY_SYS_PORT_HH
