/**
 * @file
 * gem5-style status and error reporting. panic() flags simulator bugs
 * (invariant violations) and aborts; fatal() flags user/configuration
 * errors and exits cleanly; warn() prints and continues.
 */

#ifndef LEAKY_SIM_LOGGING_HH
#define LEAKY_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace leaky::sim {

namespace detail {

[[noreturn]] void terminate(const char *kind, const std::string &msg,
                            bool core_dump);
void emit(const char *kind, const std::string &msg);
[[noreturn]] void assertFail(const char *cond, const std::string &msg);

template <typename... Args>
std::string
format(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        const int n = std::snprintf(nullptr, 0, fmt,
                                    std::forward<Args>(args)...);
        std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
        if (n > 0)
            std::snprintf(out.data(), out.size() + 1, fmt,
                          std::forward<Args>(args)...);
        return out;
    }
}

} // namespace detail

/** Abort: something happened that indicates a simulator bug. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    detail::terminate("panic", detail::format(fmt,
                      std::forward<Args>(args)...), true);
}

/** Exit(1): the simulation cannot continue due to a user/config error. */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    detail::terminate("fatal", detail::format(fmt,
                      std::forward<Args>(args)...), false);
}

/** Non-fatal warning about questionable behaviour. */
template <typename... Args>
void
warn(const char *fmt, Args &&...args)
{
    detail::emit("warn", detail::format(fmt, std::forward<Args>(args)...));
}

/** panic() unless the condition holds. */
#define LEAKY_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond))                                                       \
            ::leaky::sim::detail::assertFail(                              \
                #cond, ::leaky::sim::detail::format(__VA_ARGS__));         \
    } while (0)

/**
 * Assertion for hot paths whose check is itself expensive (e.g.,
 * re-deriving an earliest-issue tick). Controlled by the CMake option
 * LEAKY_DCHECKS (default ON, which defines LEAKY_DCHECKS_ENABLED):
 * keep it on for correctness runs and tests; configure perf builds
 * with -DLEAKY_DCHECKS=OFF so simulations do not pay for redundant
 * verification.
 */
#ifdef LEAKY_DCHECKS_ENABLED
#define LEAKY_DCHECK(cond, ...) LEAKY_ASSERT(cond, __VA_ARGS__)
#else
#define LEAKY_DCHECK(cond, ...) ((void)0)
#endif

} // namespace leaky::sim

#endif // LEAKY_SIM_LOGGING_HH
