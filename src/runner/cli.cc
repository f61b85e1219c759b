#include "runner/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/report.hh"
#include "fuzz/campaign.hh"
#include "runner/demos.hh"
#include "runner/figures.hh"
#include "runner/figures_internal.hh"
#include "runner/flags.hh"
#include "runner/pool.hh"

namespace leaky::runner {

namespace {

constexpr int kOk = 0;
constexpr int kRuntimeError = 1;
constexpr int kUsageError = 2;
/** A stop signal drained the campaign; resume with the same command. */
constexpr int kInterrupted = 3;

/** Help for every --full flag: all 29 figures at paper scale took
 *  about 3.5 min of wall time on a 4-CPU host. */
constexpr const char *kFullHelp =
    "paper scale (about 2.5 min for every figure on 4 CPUs)";

// --------------------------------------------------------------- list

/** Jobs the figure expands to at smoke / default / full scale. */
std::string
scaleSetOf(const Figure &figure)
{
    RunOptions smoke, dflt, full;
    smoke.smoke = true;
    full.full = true;
    std::string set;
    for (const RunOptions *opts : {&smoke, &dflt, &full}) {
        if (!set.empty())
            set += "/";
        set += std::to_string(jobCount(figure.make(*opts)));
    }
    return set;
}

int
cmdList(int argc, char **argv, bool help)
{
    bool names_only = false;
    FlagParser parser;
    parser.addBool("names", &names_only,
                   "print just the figure names, one per line");
    if (parser.parseOrPrintHelp(argc, argv, help))
        return kOk;

    if (names_only) {
        for (const auto &figure : figures())
            std::printf("%s\n", figure.name.c_str());
        return kOk;
    }

    // The `jobs` column is the scale set: how many sweep jobs the
    // figure expands to at --smoke / default / --full. It is derived
    // from the registry itself, so docs/FIGURES.md can be checked
    // against this output (tools/check_docs.py).
    core::Table figs({"figure", "paper", "jobs (s/d/f)", "artifact",
                      "title"});
    for (const auto &figure : figures())
        figs.addRow({figure.name, figure.paper_ref, scaleSetOf(figure),
                     figure.csv_name, figure.title});
    std::printf("figures (leakyhammer repro --fig <name>):\n%s\n",
                figs.str().c_str());

    core::Table demo_table({"demo", "flags", "scenario"});
    for (const Demo &demo : demos())
        demo_table.addRow({demo.name, demo.flags, demo.scenario});
    std::printf("demos (leakyhammer run <demo>):\n%s",
                demo_table.str().c_str());
    return kOk;
}

// -------------------------------------------------------------- repro

// Regenerate `<golden_dir>/<name>.csv` for the selected figures and
// delete stale goldens that no longer name a registered figure, so
// `tests/test_golden_figures.cc` and tools/check_docs.py stay in sync
// with the registry by construction.
int
updateGoldens(const std::string &fig_name, const RunOptions &opts,
              const std::string &golden_dir)
{
    namespace fs = std::filesystem;
    std::vector<const Figure *> selected;
    if (fig_name.empty() || fig_name == "all") {
        for (const auto &figure : figures())
            selected.push_back(&figure);
    } else {
        const Figure *figure = findFigure(fig_name);
        if (figure == nullptr)
            throw UsageError("unknown figure '" + fig_name + "'");
        selected.push_back(figure);
    }

    fs::create_directories(golden_dir);
    for (const Figure *figure : selected) {
        const std::string path = goldenPath(golden_dir, *figure);
        writeFile(path, goldenCsv(*figure, opts.threads));
        std::printf("golden: wrote %s\n", path.c_str());
    }

    if (fig_name.empty() || fig_name == "all") {
        for (const auto &entry : fs::directory_iterator(golden_dir)) {
            if (entry.path().extension() != ".csv")
                continue;
            const std::string stem = entry.path().stem().string();
            if (findFigure(stem) == nullptr) {
                fs::remove(entry.path());
                std::printf("golden: removed stale %s\n",
                            entry.path().string().c_str());
            }
        }
    }
    return kOk;
}

int
reproduceOne(const Figure &figure, const RunOptions &opts)
{
    std::printf("== %s: %s (%s) ==\n", figure.name.c_str(),
                figure.title.c_str(), figure.paper_ref.c_str());
    const auto outcome = reproduceFigure(figure, opts);
    const double rate =
        outcome.sweep.wall_seconds > 0.0
            ? static_cast<double>(outcome.sweep.jobs) /
                  outcome.sweep.wall_seconds
            : 0.0;
    std::printf("%zu jobs on %u threads in %.2f s (%.1f jobs/s)\n",
                outcome.sweep.jobs,
                SweepPool::resolveThreads(opts.threads),
                outcome.sweep.wall_seconds, rate);
    std::printf("wrote %s (%zu rows)\n\n%s\n",
                outcome.csv_path.c_str(), outcome.sweep.rows.size(),
                outcome.summary.c_str());
    return kOk;
}

int
cmdRepro(int argc, char **argv, bool help)
{
    std::string fig_name;
    RunOptions opts;
    bool update_golden = false;
    std::string golden_dir = "tests/golden";
    FlagParser parser;
    parser.addString("fig", &fig_name,
                     "figure to reproduce, or 'all' (see `list`)");
    parser.addUint("threads", &opts.threads,
                   "pool workers (0 = hardware concurrency)");
    parser.addBool("smoke", &opts.smoke,
                   "CI scale: tiny but complete sweep");
    parser.addBool("full", &opts.full, kFullHelp);
    parser.addUint64("seed", &opts.seed, "base seed (0 = figure default)");
    parser.addString("out", &opts.out_dir, "output directory for CSVs");
    parser.addBool("update-golden", &update_golden,
                   "regenerate the smoke-scale golden CSVs the "
                   "differential test compares against (forces "
                   "--smoke, default seed)");
    parser.addString("golden-dir", &golden_dir,
                     "where golden CSVs live (with --update-golden)");
    if (parser.parseOrPrintHelp(argc, argv, help))
        return kOk;
    if (update_golden)
        return updateGoldens(fig_name, opts, golden_dir);
    if (fig_name.empty())
        throw UsageError("repro needs --fig <name> (or --fig all)");

    if (fig_name == "all") {
        for (const auto &figure : figures())
            reproduceOne(figure, opts);
        return kOk;
    }
    const Figure *figure = findFigure(fig_name);
    if (figure == nullptr)
        throw UsageError("unknown figure '" + fig_name + "'");
    return reproduceOne(*figure, opts);
}

// ----------------------------------------------------------- campaign

constexpr std::uint32_t kAllShards = 0xffffffffu;

int
campaignStatusMain(const std::string &dir)
{
    const auto status = campaign::campaignStatus(dir);
    std::printf("campaign %s (%s, seed %llu): %zu jobs over %zu "
                "shard(s)\n",
                status.meta.figure.c_str(), status.meta.scale.c_str(),
                static_cast<unsigned long long>(status.meta.seed),
                status.meta.jobs, status.meta.shards);
    core::Table table({"shard", "jobs", "done", "failed", "remaining"});
    for (const auto &shard : status.shards)
        table.addRow({std::to_string(shard.shard),
                      std::to_string(shard.owned),
                      std::to_string(shard.done),
                      std::to_string(shard.failed),
                      std::to_string(shard.remaining)});
    std::printf("%s", table.str().c_str());
    std::printf("total: %zu done, %zu failed, %zu remaining\n",
                status.done, status.failed, status.remaining);
    for (const auto &shard : status.shards)
        for (const auto &[index, fail] : shard.failures)
            std::printf("  failed job %zu (shard %zu, %u attempts): "
                        "%s\n",
                        index, shard.shard, fail.attempts,
                        fail.message.c_str());
    if (status.failed > 0) {
        std::fprintf(stderr,
                     "leakyhammer: %zu job(s) failed — campaign is "
                     "unhealthy\n",
                     status.failed);
        return kRuntimeError;
    }
    return kOk;
}

int
campaignMergeMain(const std::string &dir)
{
    const auto path = campaign::writeMergedCsv(dir);
    std::printf("merged campaign CSV: %s\n", path.c_str());
    return kOk;
}

int
cmdCampaign(int argc, char **argv, bool help)
{
    std::string fig_name, dir, fault_spec, status_dir, merge_dir;
    RunOptions opts;
    std::uint32_t shards = 1, shard = kAllShards;
    std::uint32_t retries = 2, deadline_ms = 0;
    FlagParser parser;
    parser.addString("fig", &fig_name, "figure to run as a campaign");
    parser.addString("dir", &dir,
                     "campaign state directory (manifests, shard CSVs, "
                     "merged artifact)");
    parser.addUint("shards", &shards,
                   "number of job-range shards (default 1)");
    parser.addUint("shard", &shard,
                   "run only this shard, 0-based (default: all shards "
                   "in this process)");
    parser.addUint("threads", &opts.threads,
                   "pool workers per shard (0 = hardware concurrency)");
    parser.addBool("smoke", &opts.smoke,
                   "CI scale: tiny but complete sweep");
    parser.addBool("full", &opts.full, kFullHelp);
    parser.addUint64("seed", &opts.seed, "base seed (0 = figure default)");
    parser.addUint("retries", &retries,
                   "deterministic re-attempts after a job throws "
                   "(default 2)");
    parser.addUint("deadline-ms", &deadline_ms,
                   "per-job soft deadline in ms; exceeding it counts "
                   "as a failure (0 = none)");
    parser.addString("fault", &fault_spec,
                     "inject a fault: crash|throw|hang@<n>[:ms] "
                     "(also via LEAKY_CAMPAIGN_FAULT)");
    parser.addString("status", &status_dir,
                     "print campaign health for <dir> and exit "
                     "(non-zero if any job failed)");
    parser.addString("merge", &merge_dir,
                     "merge the completed campaign in <dir> and exit");
    const char *about =
        "\nA campaign shards a figure's sweep by job-index range,\n"
        "checkpoints every completed job to an append-only\n"
        "manifest, and resumes after a kill by running only the\n"
        "missing jobs. The merged CSV is byte-identical to a\n"
        "single-process `repro` run for any shard count and any\n"
        "kill/resume schedule.\n"
        "exit codes: 0 ok, 1 failed jobs, 2 usage, 3 interrupted "
        "(resumable), 42 injected crash\n";
    if (parser.parseOrPrintHelp(argc, argv, help, about))
        return kOk;

    if (!status_dir.empty())
        return campaignStatusMain(status_dir);
    if (!merge_dir.empty())
        return campaignMergeMain(merge_dir);

    if (fig_name.empty() || dir.empty())
        throw UsageError("campaign needs --fig <name> and --dir <dir> "
                         "(or --status/--merge <dir>)");
    const Figure *figure = findFigure(fig_name);
    if (figure == nullptr)
        throw UsageError("unknown figure '" + fig_name + "'");
    if (shards == 0)
        throw UsageError("--shards must be positive");
    if (shard != kAllShards && shard >= shards)
        throw UsageError("--shard must be < --shards");

    campaign::CampaignConfig config;
    config.dir = dir;
    config.threads = opts.threads;
    config.retries = retries;
    config.deadline_ms = deadline_ms;
    if (fault_spec.empty())
        if (const char *env = std::getenv(campaign::kFaultEnvVar))
            fault_spec = env;
    std::string error;
    if (!fault_spec.empty() &&
        !campaign::FaultPlan::parse(fault_spec, &config.fault, &error))
        throw UsageError(error);

    const SweepSpec spec = figure->make(opts);
    const std::string scale =
        opts.full ? "full" : (opts.smoke ? "smoke" : "default");
    const auto meta =
        campaign::makeMeta(spec, shards, figure->csv_name, scale);
    campaign::openCampaign(meta, dir);
    campaign::installStopSignalHandlers();

    std::printf("campaign %s (%s): %zu jobs over %u shard(s) in %s\n",
                meta.figure.c_str(), meta.scale.c_str(), meta.jobs,
                shards, dir.c_str());
    std::vector<std::size_t> to_run;
    if (shard == kAllShards)
        for (std::size_t s = 0; s < shards; ++s)
            to_run.push_back(s);
    else
        to_run.push_back(shard);

    std::size_t failed = 0;
    bool stopped = false;
    for (const auto s : to_run) {
        const auto report = campaign::runShard(spec, meta, config, s);
        std::printf("shard %zu: %zu/%zu done (%zu run now, %zu failed, "
                    "%zu skipped)%s\n",
                    report.shard, report.completed, report.owned,
                    report.ran, report.failed, report.skipped,
                    report.stopped ? " [stopped]" : "");
        failed += report.failed;
        stopped = stopped || report.stopped;
        if (stopped)
            break;
    }

    const auto status = campaign::campaignStatus(dir);
    if (status.complete()) {
        const auto path = campaign::writeMergedCsv(dir);
        std::printf("campaign complete: merged CSV at %s\n",
                    path.c_str());
        return kOk;
    }
    if (stopped) {
        std::printf("campaign interrupted after checkpoint: %zu done, "
                    "%zu remaining — rerun the same command to "
                    "resume\n",
                    status.done, status.remaining);
        return kInterrupted;
    }
    if (failed > 0 || status.failed > 0) {
        std::fprintf(stderr,
                     "leakyhammer: %zu job(s) failed (see `campaign "
                     "--status %s`)\n",
                     status.failed, dir.c_str());
        return kRuntimeError;
    }
    std::printf("shard(s) done: campaign at %zu/%zu jobs — run the "
                "remaining shards, then `campaign --merge %s`\n",
                status.done, status.meta.jobs, dir.c_str());
    return kOk;
}

// ---------------------------------------------------------------- run

int
cmdRun(int argc, char **argv, bool help)
{
    if (help) {
        for (const Demo &demo : demos()) {
            std::printf("\n%s: %s\n", demo.name, demo.scenario);
            demo.main(0, nullptr, true);
        }
        return kOk;
    }
    if (argc < 1 || std::string(argv[0]).rfind("--", 0) == 0) {
        std::string names;
        for (const Demo &demo : demos())
            names += (names.empty() ? "" : ", ") + std::string(demo.name);
        throw UsageError("run needs a demo name (" + names + ")");
    }
    // Flags, defaults and bounds live with each demo (runner/demos.cc).
    const Demo *demo = findDemo(argv[0]);
    if (demo == nullptr)
        throw UsageError("unknown demo '" + std::string(argv[0]) + "'");
    return demo->main(argc - 1, argv + 1, false);
}

// --------------------------------------------------------------- fuzz

int
cmdFuzz(int argc, char **argv, bool help)
{
    RunOptions opts;
    FlagParser parser;
    parser.addUint("threads", &opts.threads,
                   "pool workers (0 = hardware concurrency)");
    parser.addBool("smoke", &opts.smoke, "CI scale: tiny search budget");
    parser.addBool("full", &opts.full, kFullHelp);
    parser.addUint64("seed", &opts.seed,
                     "search seed (0 = default 1); drives both the "
                     "pattern stream and the defense seeds");
    parser.addString("out", &opts.out_dir,
                     "output directory for artifacts");
    const char *about =
        "\nRuns one evolutionary pattern campaign per defense on\n"
        "the sweep pool and writes fig_fuzz_search.csv plus\n"
        "fuzz_best.txt (the best discovered pattern per defense,\n"
        "serialized — feed it back through the fuzz-replay\n"
        "catalogue or parse it in code). Identical --seed gives\n"
        "byte-identical artifacts for any --threads.\n";
    if (parser.parseOrPrintHelp(argc, argv, help, about))
        return kOk;

    // One sweep job per defense = one complete sequential campaign, so
    // both artifacts are byte-identical for any --threads value: the
    // CSV because rows merge in job-index order, the best-pattern file
    // because `best` slots are indexed by job, never by completion.
    std::vector<fuzz::CampaignResult> best;
    const SweepSpec spec = fuzzSearchSpec(opts, &best);
    const std::vector<Job> jobs = expandJobs(spec);
    std::printf("fuzz: %zu campaign(s), seed %llu\n", jobs.size(),
                static_cast<unsigned long long>(spec.base_seed));
    const SweepResult result = runSweep(spec, opts.threads);

    if (!opts.out_dir.empty() && opts.out_dir != ".")
        std::filesystem::create_directories(opts.out_dir);
    const std::string csv_path =
        (std::filesystem::path(opts.out_dir) / "fig_fuzz_search.csv")
            .string();
    writeFile(csv_path, toCsv(result));

    std::string report;
    core::Table table({"defense", "best score", "capacity (Kbps)",
                       "error", "actions", "pattern"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto kind = static_cast<defense::DefenseKind>(
            static_cast<int>(jobs[i].param("defense")));
        const fuzz::PatternScore &top = best[i].best;
        report += std::string("defense=") + defense::defenseName(kind) +
                  " score=" + csvCell(top.score) +
                  " capacity=" + csvCell(top.capacity) +
                  " error=" + csvCell(top.error) +
                  " actions=" + std::to_string(top.actions) +
                  " pattern=" + top.pattern.str() + "\n";
        table.addRow({defense::defenseName(kind),
                      core::fmt(top.score / 1000.0, 1),
                      core::fmt(top.capacity / 1000.0, 1),
                      core::fmt(top.error, 3),
                      std::to_string(top.actions), top.pattern.str()});
    }
    const std::string best_path =
        (std::filesystem::path(opts.out_dir) / "fuzz_best.txt").string();
    writeFile(best_path, report);

    std::printf("%zu jobs in %.2f s\nwrote %s (%zu rows)\nwrote %s\n\n%s",
                result.jobs, result.wall_seconds, csv_path.c_str(),
                result.rows.size(), best_path.c_str(),
                table.str().c_str());
    return kOk;
}

// ----------------------------------------------------------- dispatch

int cmdHelp(int argc, char **argv, bool help);

/** One subcommand. `fn(argc, argv, help)` binds its flags once: with
 *  @p help set it prints their help text and returns 0 without
 *  parsing; otherwise it runs, throwing UsageError on a bad command
 *  line. */
struct Command {
    const char *name;
    const char *args;    ///< Synopsis after the name, for usage lines.
    const char *summary; ///< One line in `leakyhammer help`.
    int (*fn)(int argc, char **argv, bool help);
};

/** The only place a command is named: the top usage, `help <name>` and
 *  dispatch all read it. */
constexpr Command kCommands[] = {
    {"list", "", "list reproducible figures and demos", cmdList},
    {"repro", "--fig <name>", "reproduce a paper figure (CSV artifact)",
     cmdRepro},
    {"campaign", "[flags]", "sharded, resumable, kill-safe sweeps",
     cmdCampaign},
    {"run", "<demo> [flags]", "run one narrated scenario demo", cmdRun},
    {"fuzz", "[flags]", "search the aggressor-pattern space", cmdFuzz},
    {"help", "", "this text", cmdHelp},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &command : kCommands)
        if (name == command.name)
            return &command;
    return nullptr;
}

std::string
synopsis(const Command &command)
{
    return *command.args == '\0'
               ? std::string(command.name)
               : std::string(command.name) + " " + command.args;
}

void
printTopUsage()
{
    std::printf("usage: leakyhammer <command> [flags]\n\ncommands:\n");
    for (const Command &command : kCommands)
        std::printf("  %-18s  %s\n", synopsis(command).c_str(),
                    command.summary);
    std::printf("\nrun `leakyhammer help <command>` for per-command "
                "flags.\n");
}

int
usageError(const std::string &message, const char *command = nullptr)
{
    std::fprintf(stderr, "leakyhammer: %s\n", message.c_str());
    if (command != nullptr)
        std::fprintf(stderr,
                     "run `leakyhammer help %s` for usage\n", command);
    else
        printTopUsage();
    return kUsageError;
}

int
cmdHelp(int argc, char **argv, bool help)
{
    if (help) {
        std::printf("  <command>              print that command's usage "
                    "and flags\n");
        return kOk;
    }
    if (argc == 0) {
        printTopUsage();
        return kOk;
    }
    const Command *command = findCommand(argv[0]);
    if (command == nullptr)
        return usageError("unknown help topic '" + std::string(argv[0]) +
                          "'");
    std::printf("usage: leakyhammer %s\n", synopsis(*command).c_str());
    return command->fn(0, nullptr, true);
}

} // namespace

int
cliMain(int argc, char **argv)
{
    if (argc < 2) {
        printTopUsage();
        return kUsageError;
    }
    const std::string name = argv[1];
    if (name == "--help" || name == "-h")
        return cmdHelp(argc - 2, argv + 2, false);
    const Command *command = findCommand(name);
    if (command == nullptr)
        return usageError("unknown command '" + name + "'");
    try {
        return command->fn(argc - 2, argv + 2, false);
    } catch (const UsageError &e) {
        return usageError(e.what(), command->name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "leakyhammer: %s\n", e.what());
        return kRuntimeError;
    }
}

} // namespace leaky::runner
