"""E-PERFLINT — the analyzer gate's own overhead.

Under test: running every perflint family plus the kernel sanitizer over
the whole repository (``src/repro`` + ``examples``) stays fast enough to
sit in the CI lint job and in the grading loop — a pre-flight review
that costs minutes would not get run before launches, and §III-A's
whole point is that the checks happen *before* the meter starts.

A second benchmark pins down *why* the unified :mod:`repro.analysis`
driver exists: one shared parse per file feeding all six families beats
six sequential per-family sweeps (each re-parsing the repo) by a
measured factor, and the framework's own parse counter proves the
single-parse invariant while the clock runs.
"""

import statistics
import time
from pathlib import Path

import repro.memcheck as memcheck
from repro.analysis import (
    KNOWN_ANALYZERS,
    analyze_paths as unified_analyze_paths,
    clear_summary_cache,
    parse_count,
    reset_parse_count,
    run_paths,
    summary_cache_info,
)
from repro.analysis.driver import collect_files
from repro.analytics import series_table
from repro.perflint import analyze_paths
from repro.sanitize import lint_paths

REPO = Path(__file__).resolve().parents[1]

#: generous wall-clock ceiling for one full-repo pass (seconds); the
#: observed time is ~2 orders of magnitude below this on a laptop
FULL_REPO_BUDGET_S = 30.0

#: the unified driver must beat six sequential re-parsing sweeps by at
#: least this factor (observed ~1.8x; min-of-N keeps scheduler noise
#: from flaking the gate)
MIN_UNIFIED_SPEEDUP = 1.5

#: min-of-N trials per side for the speedup comparison
SPEEDUP_TRIALS = 3

#: the interprocedural sweep (call graph + summaries + cross-function
#: rules on top of all six families) may cost at most this factor over
#: the intra-only sweep — the summary cache keeps repeat sweeps cheap
MAX_INTERPROC_OVERHEAD = 1.5

#: back-to-back intra/interprocedural pairs behind that ratio
INTERPROC_PAIRS = 5


def run_full_repo_analysis():
    paths = [REPO / "src" / "repro", REPO / "examples"]
    n_files = sum(len(list(p.rglob("*.py"))) for p in paths)
    start = time.perf_counter()
    kernel = lint_paths(paths)
    workflow = analyze_paths(paths, analyzers=("perf", "cost", "iam"))
    elapsed = time.perf_counter() - start
    return {
        "n_files": n_files,
        "elapsed_s": elapsed,
        "kernel_findings": len(kernel.findings),
        "workflow_findings": len(workflow.findings),
    }


def test_bench_perflint_overhead(benchmark):
    out = benchmark.pedantic(run_full_repo_analysis, rounds=1, iterations=1)
    print("\n" + series_table(
        ["Metric", "Value"],
        [["files analyzed", out["n_files"]],
         ["wall clock", f"{out['elapsed_s'] * 1e3:.0f} ms"],
         ["kernel findings", out["kernel_findings"]],
         ["workflow findings", out["workflow_findings"]],
         ["budget", f"{FULL_REPO_BUDGET_S:.0f} s"]],
        title="Full-repo analyzer overhead (kernel+perf+cost+iam)"))

    assert out["n_files"] > 100          # it really walked the repo
    assert out["elapsed_s"] < FULL_REPO_BUDGET_S
    # the repo itself is the clean baseline the CI gate enforces
    assert out["kernel_findings"] == 0
    assert out["workflow_findings"] == 0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_speedup_comparison():
    paths = [REPO / "src" / "repro", REPO / "examples"]
    n_files = len(collect_files(paths))

    def sequential():
        # how the gate ran before the unified driver: one sweep per
        # family, each walking and re-parsing every file on its own
        lint_paths(paths)
        analyze_paths(paths, analyzers=("perf",))
        analyze_paths(paths, analyzers=("cost",))
        analyze_paths(paths, analyzers=("iam",))
        memcheck.analyze_paths(paths)
        unified_analyze_paths(paths, analyzers=("det",))

    def unified():
        unified_analyze_paths(paths, analyzers=KNOWN_ANALYZERS)

    sequential_s = min(_timed(sequential) for _ in range(SPEEDUP_TRIALS))
    reset_parse_count()
    unified_s = min(_timed(unified) for _ in range(SPEEDUP_TRIALS))
    parses_per_trial = parse_count() / SPEEDUP_TRIALS
    return {
        "n_files": n_files,
        "sequential_s": sequential_s,
        "unified_s": unified_s,
        "speedup": sequential_s / unified_s,
        "parses_per_trial": parses_per_trial,
    }


def test_bench_unified_driver_speedup(benchmark):
    out = benchmark.pedantic(run_speedup_comparison, rounds=1,
                             iterations=1)
    print("\n" + series_table(
        ["Metric", "Value"],
        [["files analyzed", out["n_files"]],
         ["sequential (6 sweeps)", f"{out['sequential_s'] * 1e3:.0f} ms"],
         ["unified (1 sweep)", f"{out['unified_s'] * 1e3:.0f} ms"],
         ["speedup", f"{out['speedup']:.2f}x"],
         ["parses per unified run", f"{out['parses_per_trial']:.0f}"],
         ["floor", f"{MIN_UNIFIED_SPEEDUP:.1f}x"]],
        title="Unified single-parse driver vs sequential per-family "
              "sweeps"))

    assert out["n_files"] > 100
    # the tentpole claim: sharing one parse across all six families is
    # decisively faster than six per-family re-parsing sweeps
    assert out["speedup"] >= MIN_UNIFIED_SPEEDUP
    # and the framework's own counter proves the single-parse invariant
    assert out["parses_per_trial"] == out["n_files"]


def run_interproc_overhead():
    paths = [REPO / "src" / "repro", REPO / "examples"]
    n_files = len(collect_files(paths))

    def intra():
        return run_paths(paths, analyzers=KNOWN_ANALYZERS)

    def interproc():
        return run_paths(paths, analyzers=KNOWN_ANALYZERS,
                         interprocedural=True)

    # each pair times both sides back to back, alternating which runs
    # first, and the gate reads the median of the per-pair ratios: a
    # host slowdown then lands on both sides of a pair instead of on
    # whichever side ran second, and the first (cold-cache) pair cannot
    # set the verdict alone
    clear_summary_cache()
    times = {intra: [], interproc: []}
    interproc_parses = 0
    for pair in range(INTERPROC_PAIRS):
        for fn in (intra, interproc) if pair % 2 == 0 \
                else (interproc, intra):
            reset_parse_count()
            times[fn].append(_timed(fn))
            if fn is interproc:
                interproc_parses += parse_count()
    overhead = statistics.median(
        b / a for a, b in zip(times[intra], times[interproc]))
    intra_s = statistics.median(times[intra])
    interproc_s = statistics.median(times[interproc])
    parses_per_trial = interproc_parses / INTERPROC_PAIRS
    cache = summary_cache_info()
    n_intra = len(intra().report.findings)
    n_inter = len(interproc().report.findings)
    return {
        "n_files": n_files,
        "intra_s": intra_s,
        "interproc_s": interproc_s,
        "overhead": overhead,
        "parses_per_trial": parses_per_trial,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "intra_findings": n_intra,
        "interproc_findings": n_inter,
    }


def test_bench_interprocedural_overhead(benchmark):
    out = benchmark.pedantic(run_interproc_overhead, rounds=1,
                             iterations=1)
    print("\n" + series_table(
        ["Metric", "Value"],
        [["files analyzed", out["n_files"]],
         ["intra-only sweep", f"{out['intra_s'] * 1e3:.0f} ms"],
         ["interprocedural sweep", f"{out['interproc_s'] * 1e3:.0f} ms"],
         ["overhead", f"{out['overhead']:.2f}x"],
         ["parses per interproc run", f"{out['parses_per_trial']:.0f}"],
         ["summary cache hits", out["cache_hits"]],
         ["summary cache misses", out["cache_misses"]],
         ["ceiling", f"{MAX_INTERPROC_OVERHEAD:.1f}x"]],
        title="Interprocedural sweep overhead over the intra-only "
              "gate (all six families)"))

    assert out["n_files"] > 100
    # the interprocedural acceptance gate: call graph + summaries +
    # cross-function rules stay within the overhead budget
    assert out["overhead"] <= MAX_INTERPROC_OVERHEAD
    # the single-parse invariant survives the extra layer: the call
    # graph rides the same contexts the families already share
    assert out["parses_per_trial"] == out["n_files"]
    # repeat sweeps re-extract nothing: every local summary after the
    # first trial comes from the fingerprint-keyed cache
    assert out["cache_hits"] > out["cache_misses"]
    # and the repository self-hosts clean: no new cross-function
    # findings over src/repro + examples
    assert out["interproc_findings"] == out["intra_findings"]
