#!/usr/bin/env bash
# Local mirror of the GitHub Actions CI. One invocation runs one build
# variant; the workflow fans the same script out across its matrix, so
# workflow and local runs cannot diverge.
#
#   BUILD_VARIANT=default   -O2 -g, LEAKY_DCHECK on (the dev build)
#   BUILD_VARIANT=asan      ASan + UBSan, checks on, halt on any report
#   BUILD_VARIANT=tsan      ThreadSanitizer over the work-stealing
#                           SweepPool: ctest + the 4-thread figure
#                           smoke, halt on any data-race report
#   BUILD_VARIANT=release   Release -DLEAKY_DCHECKS=OFF (LTO) + all 29
#                           figures at default scale, at figure seed 11
#                           against ci/default_scale.seed11.sha256 and
#                           the bench/e2e seed-11 pins, and at their
#                           default seeds against
#                           ci/default_scale.sha256 + the
#                           bench-regression guard
#                           (tools/check_bench.py)
#   BUILD_VARIANT=lint      static passes only, no build: leaky-lint
#                           (tools/lint/leaky_lint.py; exit 2 = lint
#                           violations, 3 = lint tool error) + advisory
#                           clang-tidy over a compile_commands.json
#                           export when clang-tidy is installed
#
# Every compiled variant configures with -DLEAKY_WERROR=ON (warnings
# are errors in CI; the CMake default stays OFF for local dev).
#
# Other knobs: BUILD_DIR, JOBS, EXPECTED_FIGURES (see smoke_figures.sh),
# LEAKY_BENCH_TOLERANCE (see check_bench.py). ccache is picked up
# automatically when installed.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_VARIANT="${BUILD_VARIANT:-default}"
BUILD_DIR="${BUILD_DIR:-build-ci-$BUILD_VARIANT}"
JOBS="${JOBS:-$(nproc)}"

usage() {
    echo "usage: BUILD_VARIANT=<variant> ci/run_ci.sh" >&2
    echo "  default   -O2 -g, LEAKY_DCHECK on (the dev build)" >&2
    echo "  asan      ASan + UBSan, halt on any report" >&2
    echo "  tsan      ThreadSanitizer, halt on any data race" >&2
    echo "  release   Release, checks off, bench-regression guard" >&2
    echo "  lint      leaky-lint + advisory clang-tidy (no build)" >&2
}

# ------------------------------------------------------------- lint
# Static passes only: leaky-lint gates (its exit codes propagate:
# 2 = violations, 3 = tool error), clang-tidy is advisory and runs
# only when installed, over a compile_commands.json export (configure
# only — no compilation needed).
if [ "$BUILD_VARIANT" = lint ]; then
    python3 tools/lint/leaky_lint.py src tests bench
    if command -v clang-tidy > /dev/null; then
        cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
              -DLEAKY_WERROR=ON > /dev/null
        # .clang-tidy sets no WarningsAsErrors: findings print for the
        # reviewer but do not gate (leaky-lint is the gating pass).
        git ls-files 'src/*.cc' | xargs clang-tidy -p "$BUILD_DIR" \
            --quiet || true
        echo "clang-tidy: advisory pass complete"
    else
        echo "clang-tidy not found; advisory tidy pass skipped"
    fi
    echo "lint variant: leaky-lint clean"
    exit 0
fi

CMAKE_ARGS=(-DLEAKY_WERROR=ON)
case "$BUILD_VARIANT" in
  default)
    ;;
  asan)
    CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined")
    ;;
  tsan)
    CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-fsanitize=thread"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread")
    # No suppressions file: the pool/controller code is expected to be
    # race-free as written. Add per-entry-justified suppressions here
    # only if a third-party library ever reports.
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
    ;;
  release)
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Release -DLEAKY_DCHECKS=OFF)
    ;;
  *)
    echo "run_ci.sh: unknown BUILD_VARIANT '$BUILD_VARIANT'" >&2
    usage
    exit 2
    ;;
esac
if command -v ccache > /dev/null; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# The ${arr[@]+...} guard keeps an empty array safe under `set -u` on
# bash < 4.4 (macOS ships 3.2).
cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j "$JOBS"
# ctest includes the golden differential suite (GoldenFigures.*) and
# the leaky-lint self-test + repo-clean checks (lint.*), so every
# variant — the asan/tsan builds in particular — replays the figure
# pipeline against tests/golden/ byte for byte.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Figure-registry smoke: every registered figure reproduces at --smoke
# and its CSV is bit-identical on 4 threads vs 1 thread. Under tsan
# this is also the data-race hunt over the work-stealing pool at real
# parallelism.
ci/smoke_figures.sh "$BUILD_DIR/leakyhammer" "$BUILD_DIR/repro"

# Docs gate (default variant only -- the docs don't change per build
# flavour): docs/FIGURES.md must cover exactly the figure registry the
# binary reports, docs/LINTING.md must cover exactly the leaky-lint
# rule set, and every relative markdown link must resolve.
if [ "$BUILD_VARIANT" = default ]; then
    "$BUILD_DIR/leakyhammer" list --names > "$BUILD_DIR/figure_names.txt"
    python3 tools/check_docs.py --names "$BUILD_DIR/figure_names.txt"
fi

# Mapping-spec smoke (default variant only): a preset and its `order:`
# respelling are one spec, so the covert demo must print the same
# bytes for both — checked through the demo's own flag plumbing.
if [ "$BUILD_VARIANT" = default ]; then
    "$BUILD_DIR/leakyhammer" run covert --mapping bank-first \
        > "$BUILD_DIR/covert-preset.txt"
    "$BUILD_DIR/leakyhammer" run covert \
        --mapping order:bg,ba,ra,col,row,ch > "$BUILD_DIR/covert-order.txt"
    cmp "$BUILD_DIR/covert-preset.txt" "$BUILD_DIR/covert-order.txt"
    echo "mapping smoke: preset and order: spelling print identical runs"
fi

# Fuzz smoke (default variant only): `leakyhammer fuzz` at a tiny
# budget, run twice with the same seed — the search CSV and the
# best-pattern serializations must be byte-identical (the fuzzer's
# determinism contract, over and above the figure smoke above).
if [ "$BUILD_VARIANT" = default ]; then
    rm -rf "$BUILD_DIR/fuzz-a" "$BUILD_DIR/fuzz-b"
    "$BUILD_DIR/leakyhammer" fuzz --smoke --seed 7 --threads 4 \
        --out "$BUILD_DIR/fuzz-a"
    "$BUILD_DIR/leakyhammer" fuzz --smoke --seed 7 --threads 1 \
        --out "$BUILD_DIR/fuzz-b" > /dev/null
    cmp "$BUILD_DIR/fuzz-a/fig_fuzz_search.csv" \
        "$BUILD_DIR/fuzz-b/fig_fuzz_search.csv"
    cmp "$BUILD_DIR/fuzz-a/fuzz_best.txt" "$BUILD_DIR/fuzz-b/fuzz_best.txt"
    echo "fuzz smoke: artifacts bit-identical across runs and threads"
fi

# Campaign kill/resume smoke (default variant only -- the asan variant
# already runs the same paths under the in-process death tests): crash
# one shard via fault injection, resume, and require the merged CSV to
# match `leakyhammer repro` byte for byte.
if [ "$BUILD_VARIANT" = default ]; then
    ci/smoke_campaign.sh "$BUILD_DIR/leakyhammer" "$BUILD_DIR/campaign-smoke"
fi

# Default-scale SHA-256 pins (release variant only): all 29 figures at
# default scale, once at their default seeds and once at figure seed
# 11, on 4 threads. The default-seed run is checked against
# ci/default_scale.sha256; the seed-11 run against
# ci/default_scale.seed11.sha256 and, in the same directory, the
# seed-11 pins bench/e2e checks for its workloads. Default scale
# reaches what the smoke goldens cannot: repeated back-offs, postponed
# double REFs and FR-RFM's scheduled REF/RFM drains over long
# hammering (covert), four cores looping their traces through the
# caches (mitigation), and sparse website traces over long windows
# (fingerprint). ~12 s per run on 4 CPUs.
if [ "$BUILD_VARIANT" = release ]; then
    root="$PWD"
    out="$BUILD_DIR/default-scale-seed11"
    rm -rf "$out"
    "$BUILD_DIR/leakyhammer" repro --fig all --seed 11 --threads 4 \
        --out "$out"
    (cd "$out" && sha256sum -c "$root/ci/default_scale.seed11.sha256" \
        "$root"/bench/e2e/expected/*.seed11.sha256)

    out="$BUILD_DIR/default-scale"
    rm -rf "$out"
    "$BUILD_DIR/leakyhammer" repro --fig all --threads 4 --out "$out"
    (cd "$out" && sha256sum -c "$root/ci/default_scale.sha256")
fi

# Perf harness: run every benchmark to completion and guard against
# regressions on the variant whose numbers are comparable to the
# tracked baseline (Release, hot-path checks off). The other variants
# smoke the harness at a tiny min_time so benchmark code is always
# exercised; the guarded run measures longer to damp run-to-run noise.
# Cross-machine variance remains — on hardware unlike the baseline's,
# widen LEAKY_BENCH_TOLERANCE rather than trusting a red/green flip.
if [ -x "$BUILD_DIR/bench/micro_simulator_throughput" ]; then
    if [ "$BUILD_VARIANT" = release ]; then
        (cd "$BUILD_DIR" && ./bench/micro_simulator_throughput \
            --benchmark_min_time=0.1 \
            --benchmark_out=BENCH_current.json \
            --benchmark_out_format=json)
        python3 tools/check_bench.py --baseline BENCH_kernel.json \
            --current "$BUILD_DIR/BENCH_current.json"
    else
        (cd "$BUILD_DIR" && ./bench/micro_simulator_throughput \
            --benchmark_min_time=0.01)
    fi
else
    echo "google-benchmark not found; kernel bench harness skipped"
fi
