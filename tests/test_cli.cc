/**
 * @file
 * CLI contract: every subcommand exits 2 (usage error) on unknown
 * flags, malformed values, and missing required arguments — never 0,
 * never a crash — and every command and demo the CLI advertises is
 * reachable. Drives runner::cliMain in-process; the figure happy paths
 * are covered by ci/smoke_figures.sh and the figure tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.hh"

namespace {

using leaky::runner::cliMain;

int
runCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "leakyhammer");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (auto &arg : args)
        argv.push_back(arg.data());
    return cliMain(static_cast<int>(argv.size()), argv.data());
}

/** Runs the CLI and returns its stdout; @p code receives the exit
 *  code. */
std::string
cliStdout(std::vector<std::string> args, int *code)
{
    testing::internal::CaptureStdout();
    *code = runCli(std::move(args));
    return testing::internal::GetCapturedStdout();
}

/** 64-bit FNV-1a digest of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t digest = 0xcbf29ce484222325ULL; // Offset basis.
    for (const unsigned char c : text) {
        digest ^= c;
        digest *= 0x100000001b3ULL; // 64-bit prime.
    }
    return digest;
}

/** First word of each line of @p text between the line @p heading and
 *  the next blank line, skipping @p skip lines after the heading. */
std::vector<std::string>
firstWordsUnder(const std::string &text, const std::string &heading,
                int skip = 0)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line) && line != heading) {
    }
    for (int i = 0; i < skip; ++i)
        std::getline(in, line);
    std::vector<std::string> words;
    while (std::getline(in, line) && !line.empty()) {
        std::string word;
        std::istringstream(line) >> word;
        words.push_back(word);
    }
    return words;
}

/** The commands `leakyhammer help` lists. */
std::vector<std::string>
listedCommands()
{
    int code = -1;
    const auto commands =
        firstWordsUnder(cliStdout({"help"}, &code), "commands:");
    EXPECT_EQ(code, 0);
    return commands;
}

/** The demos `leakyhammer list` prints (below the table header and
 *  its rule). */
std::vector<std::string>
listedDemos()
{
    int code = -1;
    const auto demos = firstWordsUnder(
        cliStdout({"list"}, &code), "demos (leakyhammer run <demo>):", 2);
    EXPECT_EQ(code, 0);
    return demos;
}

TEST(CliErrors, NoCommandOrUnknownCommandIsUsageError)
{
    EXPECT_EQ(runCli({}), 2);
    EXPECT_EQ(runCli({"bogus"}), 2);
    EXPECT_EQ(runCli({"--fig"}), 2);
}

TEST(CliErrors, EverySubcommandRejectsUnknownFlags)
{
    const auto commands = listedCommands();
    ASSERT_FALSE(commands.empty());
    for (const std::string &command : commands) {
        if (command == "run") {
            // `run` resolves the demo first; flags parse inside it.
            EXPECT_EQ(runCli({"run", "quickstart", "--nope"}), 2);
            continue;
        }
        EXPECT_EQ(runCli({command, "--nope"}), 2) << command;
        EXPECT_EQ(runCli({command, "--nope=3"}), 2) << command;
    }
}

TEST(CliErrors, MalformedValuesAreUsageErrors)
{
    EXPECT_EQ(runCli({"repro", "--fig", "latency", "--threads", "abc"}),
              2);
    EXPECT_EQ(runCli({"repro", "--fig", "latency", "--seed", "-1"}), 2);
    EXPECT_EQ(runCli({"fuzz", "--seed", "abc"}), 2);
    EXPECT_EQ(runCli({"fuzz", "--threads", "1.5"}), 2);
    EXPECT_EQ(runCli({"campaign", "--shards", "zero"}), 2);
    EXPECT_EQ(runCli({"run", "covert", "--mapping", "bogus"}), 2);
    EXPECT_EQ(runCli({"run", "covert", "--mapping",
                      "order:col,col,ba,ra,row,ch"}),
              2);
}

TEST(CliErrors, MissingRequiredArgumentsAreUsageErrors)
{
    EXPECT_EQ(runCli({"repro"}), 2);
    EXPECT_EQ(runCli({"repro", "--fig", "no-such-figure"}), 2);
    EXPECT_EQ(runCli({"campaign"}), 2);
    EXPECT_EQ(runCli({"campaign", "--fig", "latency"}), 2);
    EXPECT_EQ(runCli({"campaign", "--fig", "no-such-figure", "--dir",
                      "/tmp/x"}),
              2);
    EXPECT_EQ(runCli({"run"}), 2);
    EXPECT_EQ(runCli({"run", "no-such-demo"}), 2);
    EXPECT_EQ(runCli({"help", "no-such-topic"}), 2);
}

TEST(CliHelp, EveryListedCommandHasHelp)
{
    const auto commands = listedCommands();
    ASSERT_FALSE(commands.empty());
    for (const std::string &command : commands) {
        int code = -1;
        cliStdout({"help", command}, &code);
        EXPECT_EQ(code, 0) << "help " << command;
        EXPECT_EQ(runCli({command, "--nope"}), 2) << command;
    }
}

TEST(CliDemos, QuickstartRuns)
{
    int code = -1;
    cliStdout({"run", "quickstart"}, &code);
    EXPECT_EQ(code, 0);
}

TEST(CliDemos, CovertDecodesTheMessage)
{
    int code = -1;
    const std::string out =
        cliStdout({"run", "covert", "--message", "M"}, &code);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("decoded text:  \"M\""), std::string::npos) << out;
    EXPECT_NE(out.find("bit errors:    0 / 8"), std::string::npos) << out;
}

TEST(CliDemos, StdoutPinned)
{
    // No golden CSV covers demo output, so each demo's whole stdout is
    // pinned: a change to any knob a demo uses shows up here.
    const struct {
        std::vector<std::string> args;
        std::uint64_t digest;
    } pins[] = {
        {{"run", "quickstart"}, 0x281a1b5e89500ffdULL},
        {{"run", "covert", "--message", "M"}, 0x881bb75ef707767eULL},
        {{"run", "fingerprint", "--sites", "2", "--loads", "2"},
         0xe3a07f50bc7d48a9ULL},
        {{"run", "mitigation", "--nrh", "512"}, 0x9212b75d87b6dc8eULL},
    };
    for (const auto &pin : pins) {
        int code = -1;
        const std::string out = cliStdout(pin.args, &code);
        EXPECT_EQ(code, 0) << pin.args[1];
        EXPECT_EQ(fnv1a(out), pin.digest) << pin.args[1] << "\n" << out;
    }
}

TEST(CliDemos, EveryListedDemoRejectsUnknownFlags)
{
    const auto demos = listedDemos();
    ASSERT_FALSE(demos.empty());
    for (const std::string &demo : demos)
        EXPECT_EQ(runCli({"run", demo, "--nope"}), 2) << demo;
}

} // namespace
