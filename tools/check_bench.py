#!/usr/bin/env python3
"""Bench-regression guard: compare a freshly emitted BENCH_kernel.json
against the checked-in baseline and fail when any benchmark regresses
beyond the tolerance.

Stdlib-only on purpose — CI and laptops run it with any Python 3.

For throughput benchmarks (items_per_second) a regression is a LOWER
rate; for the rest a regression is a HIGHER cpu_time. The default
tolerance is deliberately loose (25%) to absorb shared-runner noise;
tighten or loosen it per environment:

    tools/check_bench.py --current build/BENCH_kernel.json
    LEAKY_BENCH_TOLERANCE=0.40 tools/check_bench.py ...   # noisy runner
    tools/check_bench.py --tolerance 0.10 ...             # quiet box

Headline metrics carry their own stricter ceiling (PER_BENCH_TOLERANCE):
the effective tolerance for those is min(blanket, per-bench), so a noisy
runner's widened blanket never loosens the tracked hot-loop guarantee.

Only like is compared with like: both reports must carry the same
num_cpus, leaky_build_type and leaky_dchecks context values (the bench
harness records the last two). A mismatch, or a missing value, prints
both sides and exits 2 without comparing anything.

Exit status: 0 = no regressions, 1 = at least one regression (or a
baseline benchmark missing from the current run), 2 = bad invocation
or runs that are not comparable.
"""

import argparse
import json
import os
import sys

# Stricter per-benchmark ceilings for tracked headline metrics. The
# controller hot loop is the repo's optimisation target; a 10% loss
# there is a real regression, not runner noise.
PER_BENCH_TOLERANCE = {
    "BM_ControllerRequests": 0.10,
}


# Context keys that must match before two runs are comparable.
COMPARABLE_CONTEXT = ("num_cpus", "leaky_build_type", "leaky_dchecks")


def load_report(path):
    """(context, benchmark name -> record for per-iteration runs)."""
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for record in data.get("benchmarks", []):
        if record.get("run_type", "iteration") != "iteration":
            continue  # Skip aggregate rows (mean/median/stddev).
        out[record["name"]] = record
    return data.get("context", {}), out


def context_mismatches(baseline, current):
    """Lines naming every comparability key that differs or is missing."""
    lines = []
    for key in COMPARABLE_CONTEXT:
        base = baseline.get(key)
        cur = current.get(key)
        if base is None or cur is None or base != cur:
            lines.append("  %s: baseline %s, current %s" %
                         (key, "missing" if base is None else base,
                          "missing" if cur is None else cur))
    return lines


def metric_of(record):
    """(value, higher_is_better, label) for one benchmark record."""
    if "items_per_second" in record:
        return record["items_per_second"], True, "items/s"
    return record["cpu_time"], False, "cpu_time (%s)" % record.get(
        "time_unit", "ns")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--baseline", default="BENCH_kernel.json",
        help="tracked baseline JSON (default: %(default)s)")
    parser.add_argument(
        "--current", required=True,
        help="freshly emitted JSON from --benchmark_out")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("LEAKY_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional regression (default 0.25; env "
             "override LEAKY_BENCH_TOLERANCE)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    try:
        base_context, baseline = load_report(args.baseline)
        cur_context, current = load_report(args.current)
    except (OSError, ValueError) as err:
        print("check_bench: %s" % err, file=sys.stderr)
        return 2

    mismatches = context_mismatches(base_context, cur_context)
    if mismatches:
        print("check_bench: runs are not comparable; regenerate the "
              "baseline on this host and build:\n" + "\n".join(mismatches),
              file=sys.stderr)
        return 2

    failures = []
    width = max(len(name) for name in baseline) if baseline else 0
    for name, base_record in sorted(baseline.items()):
        if name not in current:
            failures.append(name)
            print("%-*s  MISSING from current run" % (width, name))
            continue
        base, higher_better, label = metric_of(base_record)
        cur, _, _ = metric_of(current[name])
        if base <= 0:
            continue  # Degenerate baseline; nothing to compare.
        # Positive change = improvement, in either metric direction.
        change = (cur - base) / base if higher_better \
            else (base - cur) / base
        tolerance = min(args.tolerance,
                        PER_BENCH_TOLERANCE.get(name, args.tolerance))
        regressed = change < -tolerance
        if regressed:
            failures.append(name)
        print("%-*s  %+7.1f%%  %s  (%s, tol %.0f%%)" %
              (width, name, change * 100.0,
               "REGRESSED" if regressed else "ok", label,
               tolerance * 100.0))

    for name in sorted(set(current) - set(baseline)):
        print("%-*s  (new; no baseline)" % (width, name))

    if failures:
        print("check_bench: %d benchmark(s) beyond tolerance: %s" %
              (len(failures), ", ".join(failures)),
              file=sys.stderr)
        return 1
    print("check_bench: all %d benchmarks within tolerance "
          "(blanket %.0f%%)" %
          (len(baseline), args.tolerance * 100.0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
