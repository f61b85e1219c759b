/**
 * @file
 * leaky_e2e: driver of the end-to-end benchmark. It runs one workload
 * (a fixed list of registry figures at one scale) as whole passes
 * through the public runner API and prints one JSON report as the last
 * line of stdout. bench/e2e/run.py builds it, checks the CSVs it writes
 * and turns the report into the benchmark's metrics.
 *
 *   leaky_e2e --workload=<name> [--seed=N] [--seconds=S] --out=DIR
 *       Untraced passes (reproduceFigure per figure run; before every
 *       job, a host-probe sample and one timed round of the pass's
 *       set-up) until the next pass would end after S seconds; at least
 *       one.
 *   leaky_e2e --workload=<name> [--seed=N] --trace --out=DIR
 *       One untraced and one traced pass (spans around make, runSweep,
 *       every SweepSpec::job, toCsv/writeFile and summarize), a traced
 *       smoke pass over the whole registry, and the layer replay
 *       (replay.hh). Spans land in DIR/<workload>.trace.json.
 *   leaky_e2e --list
 *       The workload names, one per line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_probe.hh"
#include "replay.hh"
#include "report.hh"
#include "runner/figures.hh"
#include "runner/pool.hh"
#include "runner/runner.hh"
#include "runner/sweep.hh"
#include "sim/rng.hh"

namespace leaky::e2e {

namespace {

using runner::Figure;

/** One benchmark workload: the figures of a pass and their scale. */
struct Workload {
    std::string name;
    std::vector<std::string> figures; ///< Empty: the whole registry.
    bool smoke;
};

// See README.md for why each workload exists.
const std::vector<Workload> kWorkloads = {
    {"covert",
     {"capacity", "bitrate", "action-latency", "threshold", "cross-defense",
      "tracker-threshold", "channel-scaling", "fuzz-replay"},
     false},
    {"mitigation", {"mitigation"}, false},
    {"fingerprint", {"fingerprint"}, false},
    {"registry-smoke", {}, true},
};

// Workload passes run on one thread: on the shared 4-CPU host a pass
// waits for its slowest worker, and registry-smoke's run-to-run spread
// was 8.7 % at 2 threads against 4.6 % at 1 (interleaved runs); at 4
// threads the mitigation pass varied by 27 %. The threaded pool is
// traced in the ledger pass instead, whose metrics carry no bound.
// Jobs run BetweenJobs, which is not thread-safe: one thread.
constexpr unsigned kPassThreads = 1;
constexpr unsigned kLedgerThreads = 2;

/**
 * Figure seeds of a pass. Default-scale outputs are pinned
 * (bench/e2e/expected/) for the figures' default seeds (0) and the
 * held-out seed 11, and every pass runs both: the simulated work is
 * then the same for any run seed (mitigation alone costs 1.6x more at
 * seed 0 than at 11), and every run checks both. Smoke passes use the
 * default seeds, whose bytes tests/golden/ pins.
 */
std::vector<std::uint64_t>
figureSeeds(bool smoke)
{
    return smoke ? std::vector<std::uint64_t>{0}
                 : std::vector<std::uint64_t>{0, 11};
}

/** One figure run of a pass: a registry figure at one figure seed. */
struct Unit {
    const Figure *figure = nullptr;
    runner::RunOptions opts;
};

/** The figure runs of a pass, in an order derived from @p seed. */
std::vector<Unit>
passUnits(const std::vector<std::string> &names, unsigned threads,
          bool smoke, std::uint64_t seed, const std::string &out)
{
    std::vector<const Figure *> figures;
    if (names.empty()) {
        for (const auto &figure : runner::figures())
            figures.push_back(&figure);
    }
    for (const auto &name : names) {
        const Figure *figure = runner::findFigure(name);
        if (!figure)
            throw std::runtime_error("figure '" + name +
                                     "' is not in the registry");
        figures.push_back(figure);
    }
    std::vector<Unit> units;
    for (const auto *figure : figures) {
        for (auto figure_seed : figureSeeds(smoke)) {
            Unit unit;
            unit.figure = figure;
            unit.opts.threads = threads;
            unit.opts.smoke = smoke;
            unit.opts.seed = figure_seed;
            // Both seeds write the same CSV names: one directory each.
            unit.opts.out_dir = (std::filesystem::path(out) /
                                 ("seed" + std::to_string(figure_seed)))
                                    .string();
            units.push_back(unit);
        }
    }
    sim::Rng rng(sim::seedFanout(seed, 0));
    for (std::size_t i = units.size(); i > 1; --i)
        std::swap(units[i - 1], units[rng.below(i)]);
    return units;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** In-memory span recorder; the spans are written out at the end. */
class Tracer
{
  public:
    struct Span {
        std::string name;
        std::size_t parent = 0; ///< 0: a root span.
        double start = 0.0;     ///< Seconds since the tracer started.
        double end = 0.0;
    };

    /** Open a span; its id is its 1-based position. */
    std::size_t
    open(std::string name, std::size_t parent)
    {
        spans_.push_back({std::move(name), parent, now(), 0.0});
        return spans_.size();
    }

    /** Close span @p id; @return its duration in seconds. */
    double
    close(std::size_t id)
    {
        Span &span = spans_[id - 1];
        span.end = now();
        return span.end - span.start;
    }

    /** Record an already finished interval. */
    void
    add(std::string name, std::size_t parent, Clock::time_point start,
        Clock::time_point end)
    {
        spans_.push_back({std::move(name), parent, at(start), at(end)});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double now() const { return at(Clock::now()); }

    double
    at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - origin_).count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** A CSV a figure run wrote. */
struct Output {
    const Unit *unit = nullptr;
    std::string path;
};

/** What one pass did and how long it took. */
struct PassResult {
    std::string kind;
    /** Host seconds of the pass, less the time spent between jobs. */
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /** HostProbe::speedFactor() over the pass (1 for traced passes). */
    double speed = 1.0;
    std::size_t probes = 0;
    /** Median set-up round at the reference speed (untraced passes). */
    double setup_s = 0.0;
    std::size_t jobs = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Output> outputs;
    // Traced passes only.
    std::map<std::string, double> figure_s; ///< Summed over figure seeds.
    std::vector<double> job_s;
    double sweep_s = 0.0;
    double summarize_s = 0.0;
    double csv_s = 0.0;
};

void
recordFailure(const Unit &unit, const runner::SweepError &error,
              PassResult &pass)
{
    pass.jobs += error.partial().jobs;
    pass.failed += error.failures().size();
    pass.failures.push_back(unit.figure->name + " (figure seed " +
                            std::to_string(unit.opts.seed) +
                            "): " + error.what());
}

/**
 * What an untraced pass does before each job: one host-probe sample,
 * then one round of the pass's set-up, timed and scaled by that sample.
 * A round is what every figure run of the pass does before its first
 * job: Figure::make, the SweepPool and the job expansion. Rounds run
 * between jobs, not at process start, so that they meet the host in the
 * same state as the probe sample before them; set-up rounds timed
 * back to back at start-up spread 16-38% across runs, these 5-12%.
 */
class BetweenJobs
{
  public:
    BetweenJobs(const std::vector<Unit> &units, HostProbe &probe)
        : units_(units), probe_(probe)
    {
    }

    void
    operator()()
    {
        const auto start = Clock::now();
        const double factor = HostProbe::factor(probe_.sample());
        const auto round_start = Clock::now();
        for (const auto &unit : units_) {
            const runner::SweepSpec spec = unit.figure->make(unit.opts);
            const runner::SweepPool pool(unit.opts.threads);
            runner::expandJobs(spec);
        }
        rounds_.push_back(secondsSince(round_start) * factor);
        host_s_ += secondsSince(start);
    }

    /** Median set-up round, at the reference host speed. */
    double
    setupSeconds() const
    {
        if (rounds_.empty())
            return 0.0;
        std::vector<double> sorted = rounds_;
        std::sort(sorted.begin(), sorted.end());
        return sorted[sorted.size() / 2];
    }

    /** Host seconds spent here, which the pass's times exclude. */
    double hostSeconds() const { return host_s_; }

  private:
    const std::vector<Unit> &units_;
    HostProbe &probe_;
    std::vector<double> rounds_;
    double host_s_ = 0.0;
};

/**
 * What `leakyhammer repro --fig` runs, on a copy of the figure whose
 * jobs first run @p between.
 */
void
runUnit(const Unit &unit, BetweenJobs &between, PassResult &pass)
{
    Figure probed = *unit.figure;
    probed.make = [&between,
                   make = unit.figure->make](const runner::RunOptions &o) {
        runner::SweepSpec spec = make(o);
        spec.job = [&between,
                    job = std::move(spec.job)](const runner::Job &j) {
            between();
            return job(j);
        };
        return spec;
    };
    try {
        const auto outcome = runner::reproduceFigure(probed, unit.opts);
        pass.jobs += outcome.sweep.jobs;
        pass.outputs.push_back({&unit, outcome.csv_path});
    } catch (const runner::SweepError &error) {
        recordFailure(unit, error, pass);
    }
}

/** reproduceFigure split into its calls, each inside a span. */
void
runUnitTraced(const Unit &unit, Tracer &tracer, std::size_t parent,
              PassResult &pass)
{
    const Figure &figure = *unit.figure;
    const runner::RunOptions &opts = unit.opts;
    const auto start = Clock::now();
    const auto fig_span = tracer.open(
        figure.name + "@seed" + std::to_string(opts.seed), parent);
    auto span = tracer.open("make", fig_span);
    runner::SweepSpec spec = figure.make(opts);
    tracer.close(span);

    // Each job writes only its own slot, so recording needs no lock
    // and cannot change what the runner merges.
    using Interval = std::pair<Clock::time_point, Clock::time_point>;
    std::vector<Interval> job_times(runner::jobCount(spec));
    spec.job = [inner = std::move(spec.job),
                &job_times](const runner::Job &job) {
        const auto t0 = Clock::now();
        auto rows = inner(job);
        job_times[job.index] = {t0, Clock::now()};
        return rows;
    };

    span = tracer.open("sweep", fig_span);
    runner::SweepResult result;
    try {
        result = runner::runSweep(spec, opts.threads);
    } catch (const runner::SweepError &error) {
        recordFailure(unit, error, pass);
        tracer.close(span);
        tracer.close(fig_span);
        pass.figure_s[figure.name] += secondsSince(start);
        return;
    }
    pass.sweep_s += tracer.close(span);
    for (const auto &[t0, t1] : job_times) {
        tracer.add("job", span, t0, t1);
        pass.job_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    }

    span = tracer.open("csv", fig_span);
    if (!opts.out_dir.empty() && opts.out_dir != ".")
        std::filesystem::create_directories(opts.out_dir);
    const auto path =
        (std::filesystem::path(opts.out_dir) / figure.csv_name).string();
    runner::writeFile(path, runner::toCsv(result));
    pass.csv_s += tracer.close(span);

    span = tracer.open("summarize", fig_span);
    if (figure.summarize)
        figure.summarize(result);
    pass.summarize_s += tracer.close(span);

    tracer.close(fig_span);
    pass.jobs += result.jobs;
    pass.outputs.push_back({&unit, path});
    pass.figure_s[figure.name] += secondsSince(start);
}

/** One pass over @p units: traced if @p tracer is set, otherwise
 *  sampling @p probe and set-up between jobs (BetweenJobs). */
PassResult
runPass(std::string kind, const std::vector<Unit> &units, Tracer *tracer,
        HostProbe &probe)
{
    PassResult pass;
    pass.kind = std::move(kind);
    probe.clear();
    BetweenJobs between(units, probe);
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const std::size_t root = tracer ? tracer->open(pass.kind, 0) : 0;
    for (const auto &unit : units) {
        if (tracer)
            runUnitTraced(unit, *tracer, root, pass);
        else
            runUnit(unit, between, pass);
    }
    pass.wall_s = secondsSince(start) - between.hostSeconds();
    pass.cpu_s = cpuSeconds() - cpu0 - between.hostSeconds();
    pass.speed = probe.speedFactor();
    pass.probes = probe.count();
    pass.setup_s = between.setupSeconds();
    if (tracer)
        tracer->close(root);
    return pass;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** CSV bytes by path, of every output of @p pass. */
std::map<std::string, std::string>
outputBytes(const PassResult &pass)
{
    std::map<std::string, std::string> bytes;
    for (const auto &out : pass.outputs)
        bytes[out.path] = readFile(out.path);
    return bytes;
}

/** Highest percentile of the ladder with at least 10 samples beyond
 *  it among @p n (50 when there are fewer than 20). */
double
tailPercentile(std::size_t n)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0)
            return pct;
    return 50.0;
}

/** Nearest-rank percentile of sorted @p values. */
double
percentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

void
reportRunnerSpans(const PassResult &traced, const PassResult &plain,
                  const PassResult &ledger, Report &report)
{
    std::vector<double> jobs = traced.job_s;
    std::sort(jobs.begin(), jobs.end());
    double ledger_busy = 0.0;
    for (double s : ledger.job_s)
        ledger_busy += s;
    const double tail = tailPercentile(jobs.size());
    report.metric("runner.jobs", "count", static_cast<double>(jobs.size()));
    report.metric("runner.job_p50_ms", "ms", 1e3 * percentile(jobs, 50.0));
    report.metric("runner.job_tail_ms", "ms", 1e3 * percentile(jobs, tail));
    report.metric("runner.job_tail_pct", "pct", tail);
    report.metric("runner.job_max_ms", "ms",
                  jobs.empty() ? 0.0 : 1e3 * jobs.back());
    report.metric("runner.pool_busy_frac", "frac",
                  ratio(ledger_busy, kLedgerThreads * ledger.sweep_s));
    report.metric("runner.summarize_s", "s", traced.summarize_s);
    report.metric("runner.csv_s", "s", traced.csv_s);
    report.metric("trace_overhead_frac", "frac",
                  ratio(traced.wall_s - plain.wall_s, plain.wall_s));
    for (const auto &figure : runner::figures())
        report.metric("runner.fig_s." + figure.name, "s",
                      ledger.figure_s.at(figure.name));
}

// ------------------------------------------------------------ JSON out

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Round-trip exact; non-finite values (never expected) become null,
 *  which run.py rejects. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

template <typename T, typename F>
std::string
jsonList(const std::vector<T> &items, F render)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + render(items[i]);
    return out + "]";
}

void
writeTrace(const std::string &path, const Tracer &tracer)
{
    std::string out = "{\"spans\":[";
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        out += (i ? ",\n" : "\n") + std::string("{\"name\":") +
               jsonString(spans[i].name) +
               ",\"id\":" + std::to_string(i + 1) +
               ",\"parent\":" + std::to_string(spans[i].parent) +
               ",\"start\":" + jsonNumber(spans[i].start) +
               ",\"end\":" + jsonNumber(spans[i].end) + "}";
    }
    runner::writeFile(path, out + "\n]}\n");
}

std::string
passJson(const PassResult &pass)
{
    return "{\"kind\":" + jsonString(pass.kind) +
           ",\"wall_s\":" + jsonNumber(pass.wall_s) +
           ",\"cpu_s\":" + jsonNumber(pass.cpu_s) +
           ",\"speed\":" + jsonNumber(pass.speed) +
           ",\"probes\":" + std::to_string(pass.probes) +
           ",\"setup_s\":" + jsonNumber(pass.setup_s) +
           ",\"jobs\":" + std::to_string(pass.jobs) +
           ",\"failed\":" + std::to_string(pass.failed) +
           ",\"failures\":" +
           jsonList(pass.failures, jsonString) + "}";
}

/** Smoke outputs are checked against tests/golden/, default-scale ones
 *  against bench/e2e/expected/. */
std::string
outputJson(const Output &out)
{
    const Unit &unit = *out.unit;
    return "{\"figure\":" + jsonString(unit.figure->name) +
           ",\"csv\":" + jsonString(unit.figure->csv_name) +
           ",\"figure_seed\":" + std::to_string(unit.opts.seed) +
           ",\"path\":" + jsonString(out.path) + ",\"check\":" +
           (unit.opts.smoke ? "\"golden\"" : "\"pinned\"") + "}";
}

// ---------------------------------------------------------------- CLI

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string out;
    bool trace = false;
    bool list = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--out")
                args.out = value;
            else if (arg == "--trace")
                args.trace = true;
            else if (arg == "--list")
                args.list = true;
            else
                throw std::invalid_argument("unknown flag");
        } catch (const std::logic_error &) {
            throw std::runtime_error("bad argument '" + arg + "'");
        }
    }
    if (args.seconds <= 0.0 || !std::isfinite(args.seconds))
        throw std::runtime_error("--seconds must be positive");
    if (args.out.empty() && !args.list)
        throw std::runtime_error("--out=DIR is required");
    return args;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads)
        if (w.name == name)
            return w;
    std::string known;
    for (const auto &w : kWorkloads)
        known += " " + w.name;
    throw std::runtime_error("unknown --workload '" + name +
                             "' (known:" + known + ")");
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.list) {
        for (const auto &w : kWorkloads)
            std::printf("%s\n", w.name.c_str());
        return 0;
    }
    const Workload &w = findWorkload(args.workload);
    // The first registry lookup builds the registry: the part of a
    // run's set-up that no pass repeats.
    const auto registry_start = Clock::now();
    runner::figures();
    const double registry_s = secondsSince(registry_start);
    HostProbe probe;
    const auto units =
        passUnits(w.figures, kPassThreads, w.smoke, args.seed, args.out);
    Report report;
    std::vector<PassResult> passes;
    const auto complete = [&report](const PassResult &pass,
                                    std::size_t expected) {
        report.check(pass.kind + ".outputs",
                     pass.outputs.size() == expected,
                     std::to_string(pass.outputs.size()) + " of " +
                         std::to_string(expected) + " CSVs written");
    };
    std::vector<Unit> ledger_units;
    if (!args.trace) {
        const auto start = Clock::now();
        std::map<std::string, std::string> first;
        do {
            passes.push_back(runPass("pass", units, nullptr, probe));
            complete(passes.back(), units.size());
            auto bytes = outputBytes(passes.back());
            if (passes.size() == 1)
                first = std::move(bytes);
            else
                report.check("pass" + std::to_string(passes.size()) +
                                 ".csv_identical",
                             bytes == first,
                             "CSV bytes differ from the first pass");
        } while (secondsSince(start) + passes.back().wall_s <= args.seconds);
    } else {
        Tracer tracer;
        passes.push_back(runPass("untraced", units, nullptr, probe));
        complete(passes.back(), units.size());
        const auto plain_bytes = outputBytes(passes.back());
        passes.push_back(runPass("traced", units, &tracer, probe));
        complete(passes.back(), units.size());
        report.check("traced.csv_identical",
                     outputBytes(passes.back()) == plain_bytes,
                     "traced CSV bytes differ from the untraced pass");

        // The per-figure ledger: every registry figure at smoke scale,
        // whatever the workload, so runner.fig_s.* is always emitted.
        ledger_units = passUnits(
            {}, kLedgerThreads, true, args.seed,
            (std::filesystem::path(args.out) / "ledger").string());
        passes.push_back(runPass("ledger", ledger_units, &tracer, probe));
        complete(passes.back(), ledger_units.size());
        reportRunnerSpans(passes[1], passes[0], passes[2], report);

        const auto span = tracer.open("replay", 0);
        runLayerReplay(args.seed, report);
        tracer.close(span);
        writeTrace((std::filesystem::path(args.out) /
                    (w.name + ".trace.json"))
                       .string(),
                   tracer);
    }

    // Every pass of a run writes the same paths: list the first pass's
    // outputs, plus the ledger's.
    std::vector<Output> outputs = passes.front().outputs;
    if (args.trace)
        outputs.insert(outputs.end(), passes.back().outputs.begin(),
                       passes.back().outputs.end());
    std::string metrics, counts;
    for (const auto &m : report.metrics)
        metrics += (metrics.empty() ? "" : ",") + jsonString(m.name) +
                   ":{\"value\":" + jsonNumber(m.value) +
                   ",\"unit\":" + jsonString(m.unit) + "}";
    for (const auto &[name, value] : report.counts)
        counts += (counts.empty() ? "" : ",") + jsonString(name) + ":" +
                  jsonNumber(value);
    const std::string checks = jsonList(report.checks, [](const Check &c) {
        return "{\"name\":" + jsonString(c.name) +
               ",\"ok\":" + (c.ok ? "true" : "false") +
               ",\"detail\":" + jsonString(c.detail) + "}";
    });

    std::printf(
        "{\"workload\":%s,\"compiler\":%s,\"registry_s\":%s,"
        "\"passes\":%s,\"peak_rss_mb\":%s,\"outputs\":%s,"
        "\"checks\":%s,\"metrics\":{%s},\"counts\":{%s}}\n",
        jsonString(w.name).c_str(), jsonString(LEAKY_E2E_COMPILER).c_str(),
        jsonNumber(registry_s).c_str(), jsonList(passes, passJson).c_str(),
        jsonNumber(peakRssMb()).c_str(),
        jsonList(outputs, outputJson).c_str(), checks.c_str(),
        metrics.c_str(), counts.c_str());
    return 0;
}

} // namespace

} // namespace leaky::e2e

int
main(int argc, char **argv)
{
    try {
        return leaky::e2e::run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "leaky_e2e: %s\n", error.what());
        return 2;
    }
}
