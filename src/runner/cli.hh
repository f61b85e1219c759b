/**
 * @file
 * The `leakyhammer` command-line interface: one entry point for every
 * scenario in the repo. Each command is declared once, in the command
 * table in cli.cc, and each demo once, in the demo table in demos.cc;
 * usage, `help`, `list`, dispatch and errors are derived from them.
 * `leakyhammer help` prints the commands.
 *
 * Exit codes: 0 success, 1 runtime failure, 2 usage error (unknown
 * command, unknown flag, malformed value), 3 campaign interrupted by
 * a stop signal (rerun the same command to resume), 42 injected
 * campaign crash (`campaign --fault crash@<n>`).
 */

#ifndef LEAKY_RUNNER_CLI_HH
#define LEAKY_RUNNER_CLI_HH

namespace leaky::runner {

/** Full CLI dispatch; returns the process exit code. */
int cliMain(int argc, char **argv);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_CLI_HH
