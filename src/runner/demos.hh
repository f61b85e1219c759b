/**
 * @file
 * The narrated scenario demos behind `leakyhammer run <demo>`. Each
 * prints a walk-through of one paper scenario. The table below is the
 * only place a demo is named: `list`, `help run` and `run`'s dispatch
 * all read it.
 */

#ifndef LEAKY_RUNNER_DEMOS_HH
#define LEAKY_RUNNER_DEMOS_HH

#include <string>
#include <vector>

namespace leaky::runner {

struct Demo {
    const char *name;     ///< `leakyhammer run <name>`.
    const char *flags;    ///< Flag synopsis for `list` ("-" = none).
    const char *scenario; ///< One line for `list` and `help run`.
    /**
     * Binds the demo's flags once. With @p help set, prints their help
     * text and returns 0 without parsing; otherwise parses argv (which
     * excludes the demo name) strictly, throwing UsageError on any bad
     * flag or out-of-range value, then runs the demo and returns its
     * exit code.
     */
    int (*main)(int argc, char **argv, bool help);
};

/** Every demo, in `list` order. */
const std::vector<Demo> &demos();

/** Look up by name; nullptr when unknown. */
const Demo *findDemo(const std::string &name);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_DEMOS_HH
