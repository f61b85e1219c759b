#!/usr/bin/env python3
"""End-to-end benchmark of the LeakyHammer reproduction (see README.md).

Builds bench/e2e (the repo's library plus the leaky_e2e driver) into
build-bench/ as Release with LEAKY_DCHECKS=OFF, runs each workload in a
leaky_e2e process of its own, checks every CSV the run wrote, and prints
every metric by name with its unit.

  python3 bench/e2e/run.py                   every workload once
  python3 bench/e2e/run.py --trace           per-layer metrics instead
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last line of stdout is its result as JSON
  python3 bench/e2e/run.py --repeat N [--json-out F]
        N rounds of every workload, alternating the workload order
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --check-names

Exit codes: 0 ok; 1 an output check failed, or --compare found a metric
worse than its bound; 2 the benchmark could not run or refused to.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "leaky_e2e")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EXPECTED = os.path.join(HERE, "expected")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
# Metrics in these units measure work done: a run must read them > 0.
WORK_UNITS = {"s", "ms", "us", "ns", "1/s", "ns/s"}


class BenchError(Exception):
    """The benchmark cannot run, or refuses to (exit code 2)."""


def log(text):
    print(text, file=sys.stderr, flush=True)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_logged(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: no result within %d s" % (cmd[0], timeout))
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError("%s failed with exit code %d"
                         % (" ".join(cmd), proc.returncode))


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                values[m.group(1)] = m.group(2)
    return values


def build():
    """Configure (once) and build leaky_e2e; refuse a foreign config."""
    for need in ("CMakeLists.txt", "src", os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("%s is missing: the benchmark builds the "
                             "program from a full checkout" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # Concurrent runs build once.
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DLEAKY_DCHECKS=OFF"], BUILD_TIMEOUT_S)
        cache = cmake_cache()
        build_type = cache.get("CMAKE_BUILD_TYPE", "")
        dchecks = cache.get("LEAKY_DCHECKS", "")
        if build_type != "Release" or dchecks.upper() not in ("OFF", "0",
                                                              "FALSE"):
            raise BenchError(
                "refusing build-bench/: CMAKE_BUILD_TYPE=%r "
                "LEAKY_DCHECKS=%r; results are only comparable from "
                "Release with LEAKY_DCHECKS=OFF (delete build-bench/ to "
                "reconfigure)" % (build_type, dchecks))
        run_logged(["cmake", "--build", BUILD, "--target", "leaky_e2e",
                    "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return {"build_type": build_type, "dchecks": dchecks.upper()}


def run_binary(args, timeout):
    """Run leaky_e2e; return its stdout lines."""
    if timeout <= 0:
        raise BenchError("no time left for leaky_e2e %s" % " ".join(args))
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("leaky_e2e %s: no result within %.0f s"
                         % (" ".join(args), timeout))
    if proc.returncode != 0:
        log(proc.stderr)
        raise BenchError("leaky_e2e %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return proc.stdout.strip().splitlines()


def run_json(args, timeout):
    lines = run_binary(args, timeout)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("leaky_e2e %s printed no JSON report"
                         % " ".join(args))


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def pinned_hashes(workload, figure_seed):
    """csv name -> sha256 from expected/<workload>.seed<N>.sha256."""
    path = os.path.join(EXPECTED, "%s.seed%d.sha256" % (workload,
                                                        figure_seed))
    if not os.path.exists(path):
        return None
    hashes = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                digest, name = line.split()
                hashes[name] = digest
    return hashes


def check_outputs(report):
    """The output gate: one message per CSV that is not as pinned, and
    per pinned CSV that the run did not write."""
    errors = []
    written = {}
    for out in report["outputs"]:
        if out["check"] == "pinned":
            written.setdefault(out["figure_seed"], set()).add(out["csv"])
    for figure_seed, names in sorted(written.items()):
        pinned = pinned_hashes(report["workload"], figure_seed) or {}
        for name in sorted(set(pinned) - names):
            errors.append("%s (figure seed %d): pinned but not written"
                          % (name, figure_seed))
    for out in report["outputs"]:
        data = read_bytes(out["path"])
        if out["check"] == "golden":
            golden = os.path.join(GOLDEN, out["figure"] + ".csv")
            if not os.path.exists(golden) or read_bytes(golden) != data:
                errors.append("%s: CSV differs from tests/golden/%s.csv"
                              % (out["figure"], out["figure"]))
            continue
        digest = hashlib.sha256(data).hexdigest()
        pinned = pinned_hashes(report["workload"], out["figure_seed"])
        if pinned is None:
            errors.append("%s: nothing pinned for %s at figure seed %d"
                          % (out["figure"], report["workload"],
                             out["figure_seed"]))
        elif pinned.get(out["csv"]) != digest:
            errors.append("%s (figure seed %d): %s has sha256 %s, pinned %s"
                          % (out["figure"], out["figure_seed"], out["csv"],
                             digest, pinned.get(out["csv"])))
    return errors


def check_counts(report, seed):
    """Simulated counts must repeat exactly for one binary and seed."""
    h = hashlib.sha256(read_bytes(BINARY)).hexdigest()[:16]
    path = os.path.join(OUT, "counts", "%s.seed%d.json" % (h, seed))
    counts = report["counts"]
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        changed = sorted(k for k in set(previous) | set(counts)
                         if previous.get(k) != counts.get(k))
        return ["simulated counts differ from the previous run on seed "
                "%d: %s" % (seed, ", ".join(changed))] if changed else []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return []


def check_metrics(metrics, declared):
    """Emitted names == declared names, units match, values finite."""
    errors = []
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        errors.append("metric names differ from BENCHMARK.json: missing "
                      "%s, undeclared %s" % (missing, extra))
    for name, m in sorted(metrics.items()):
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: not a finite number" % name)
        elif m["unit"] in WORK_UNITS and value <= 0:
            errors.append("%s: measured no work" % name)
        if name in declared and declared[name]["unit"] != m["unit"]:
            errors.append("%s: unit %s, declared %s"
                          % (name, m["unit"], declared[name]["unit"]))
    return errors


def one_run(bench, workload, seed, seconds, trace):
    """Run one workload once. Returns (result, report, errors)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = os.path.join(OUT, "%s.seed%d%s" % (workload, seed,
                                             ".trace" if trace else ""))
    shutil.rmtree(out, ignore_errors=True)
    args = ["--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%g" % seconds, "--out=" + out]
    report = run_json(args + (["--trace"] if trace else []),
                      deadline - time.monotonic())

    errors = ["check %s: %s" % (c["name"], c["detail"])
              for c in report["checks"] if not c["ok"]]
    for p in report["passes"]:
        errors += ["failed jobs: " + f for f in p["failures"]]
    errors += check_outputs(report)
    if trace:
        metrics = report["metrics"]
        declared = {m["name"]: m for m in bench["per_layer"]}
        errors += check_counts(report, seed)
    else:
        # Times at the reference host speed: host seconds times the host
        # probe's speed factor (see host_probe.hh). A pass's set-up is
        # already scaled, round by round (see BetweenJobs in main.cc).
        med = statistics.median
        passes = report["passes"]
        metrics = {
            "wall_s": {"value": med([p["wall_s"] * p["speed"]
                                     for p in passes]), "unit": "s"},
            "cpu_s": {"value": med([p["cpu_s"] * p["speed"]
                                    for p in passes]), "unit": "s"},
            "setup_s": {"value": med([report["registry_s"] * p["speed"] +
                                      p["setup_s"] for p in passes]),
                        "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        declared = {m["name"]: m for m in bench["end_to_end"]}
    errors += check_metrics(metrics, declared)
    result = {
        "correct": not errors,
        "attempted": max(1, sum(p["jobs"] for p in report["passes"])),
        "failed": sum(p["failed"] for p in report["passes"]),
        "metrics": metrics,
    }
    return result, report, errors


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def stamp(build_info, report):
    """Where and how a result was measured; --compare needs a match."""
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "build": dict(build_info, compiler=report["compiler"]),
        "git_sha": git_sha(),
    }


def show(workload, seed, result, report, errors, stream):
    for name, m in sorted(result["metrics"].items()):
        print("%-16s seed %-4d %-36s %14.6g %s"
              % (workload, seed, name, m["value"], m["unit"]), file=stream)
    for p in report["passes"]:
        if p["probes"]:
            print("%-16s seed %-4d %s: %.4g s host time, %.4g s CPU, "
                  "host speed %.3f over %d probes"
                  % (workload, seed, p["kind"], p["wall_s"], p["cpu_s"],
                     p["speed"], p["probes"]), file=stream)
    for e in errors:
        print("%-16s seed %-4d FAIL %s" % (workload, seed, e), file=stream)


def driver(bench, args, build_info):
    """One run in the benchmark contract's form."""
    result, report, errors = one_run(bench, args.workload, args.seed,
                                     args.seconds, args.trace)
    log(json.dumps(stamp(build_info, report)))
    show(args.workload, args.seed, result, report, errors, sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def gate(bench, args, build_info):
    """Every workload once; any failed check exits 1."""
    seed = args.seed if args.seed is not None else 0
    failed = False
    for w in bench["workloads"]:
        result, report, errors = one_run(bench, w["name"], seed,
                                         args.seconds, args.trace)
        show(w["name"], seed, result, report, errors, sys.stdout)
        failed = failed or not result["correct"]
    print(json.dumps(stamp(build_info, report)))
    return 1 if failed else 0


def spread_stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0}


def repeat(bench, args, build_info):
    """--repeat N: rounds of every workload, alternating the order; a
    fresh seed per round unless --seed fixes one."""
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, failed, report = [], False, None
    for rnd in range(1, args.repeat + 1):
        for name in (names if rnd % 2 else names[::-1]):
            seed = args.seed if args.seed is not None else rnd
            result, report, errors = one_run(bench, name, seed,
                                             args.seconds, False)
            show(name, seed, result, report, errors, sys.stderr)
            failed = failed or not result["correct"]
            passes = report["passes"]
            runs.append({"round": rnd, "workload": name, "seed": seed,
                         "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v
                                     in result["metrics"].items()},
                         "host_wall_s": statistics.median(
                             p["wall_s"] for p in passes),
                         "speed": statistics.median(
                             p["speed"] for p in passes)})
    summary = {}
    print("%-16s %-12s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        summary[name] = {}
        for metric in bounds:
            values = [r["metrics"][metric] for r in runs
                      if r["workload"] == name]
            s = spread_stats(values)
            summary[name][metric] = s
            flag = "  SPREAD>BOUND" if s["spread"] > bounds[metric] else ""
            print("%-16s %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s" % (
                name, metric, s["median"], s["q1"], s["q3"],
                100 * s["spread"], 100 * bounds[metric], flag))
        # Unscaled host seconds, for comparison only: no bound.
        s = spread_stats([r["host_wall_s"] for r in runs
                          if r["workload"] == name])
        summary[name]["host_wall_s"] = s
        print("%-16s %-12s %12.6g %12.6g %12.6g %7.2f%%" % (
            name, "host_wall_s", s["median"], s["q1"], s["q3"],
            100 * s["spread"]))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"stamp": stamp(build_info, report),
                       "run_seconds": args.seconds, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 1 if failed else 0


def compare(bench, paths):
    """Medians of two --repeat results, refused across hosts/builds."""
    a, b = [json.load(open(p)) for p in paths]
    for part in ("host", "build"):
        if a["stamp"][part] != b["stamp"][part]:
            log("refusing to compare: %s differs\n  %s: %s\n  %s: %s"
                % (part, paths[0], a["stamp"][part], paths[1],
                   b["stamp"][part]))
            return 2
    print("%-16s %-12s %12s %12s %8s %6s  verdict" % (
        "workload", "metric", "A median", "B median", "change", "bound"))
    worse = False
    for m in bench["end_to_end"]:
        for name in sorted(set(a["summary"]) & set(b["summary"])):
            sa = a["summary"][name].get(m["name"])
            sb = b["summary"][name].get(m["name"])
            if not sa or not sb:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            loss = change if m["better"] == "lower" else -change
            if max(sa["spread"], sb["spread"]) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif loss > m["bound"]:
                verdict, worse = "WORSE beyond bound", True
            else:
                verdict = "within bound"
            print("%-16s %-12s %12.6g %12.6g %+7.2f%% %5.0f%%  %s" % (
                name, m["name"], sa["median"], sb["median"], 100 * change,
                100 * m["bound"], verdict))
    return 1 if worse else 0


def check_names(bench, seconds):
    """Declared names are well formed, and the driver emits exactly the
    declared workloads and metrics (checked in both directions)."""
    problems = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in bench[section]:
            if not NAME_RE.match(item["name"]):
                problems.append("%s: bad name %r" % (section, item["name"]))
            if item["name"] in seen:
                problems.append("%s: %r used twice" % (section, item["name"]))
            seen.add(item["name"])
            if "unit" in item and not UNIT_RE.match(item["unit"]):
                problems.append("%s: bad unit %r" % (section, item["unit"]))
    declared = [w["name"] for w in bench["workloads"]]
    driven = run_binary(["--list"], RUN_TIMEOUT_S)
    for name in sorted(set(declared) - set(driven)):
        problems.append("workload %s is declared but not driven" % name)
    for name in sorted(set(driven) - set(declared)):
        problems.append("workload %s is driven but not declared" % name)
    for name in sorted(set(declared) & set(driven)):
        for trace in (False, True):
            _, _, errors = one_run(bench, name, 0, seconds, trace)
            problems += ["%s%s: %s" % (name, " --trace" if trace else "", e)
                         for e in errors if "metric names" in e]
    for p in problems:
        print("check-names: " + p)
    print("check-names: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (contract "
                        "mode: the last stdout line is the result)")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics instead "
                        "of end-to-end ones")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--json-out", metavar="FILE",
                        help="with --repeat: write runs and medians")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--check-names", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench = load_bench()
        if args.compare:
            return compare(bench, args.compare)
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if (args.seconds <= 0 or (args.seed is not None and args.seed < 0)
                or (args.repeat is not None and args.repeat < 2)):
            parser.error("--seconds must be positive, --seed at least 0, "
                         "--repeat at least 2")
        build_info = build()
        if args.check_names:
            return check_names(bench, 1)
        if args.repeat:
            return repeat(bench, args, build_info)
        if args.workload:
            if args.seed is None:
                args.seed = 0
            return driver(bench, args, build_info)
        return gate(bench, args, build_info)
    except (BenchError, OSError, ValueError) as err:
        log("run.py: %s" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
