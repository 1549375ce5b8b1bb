"""Host-time benchmark of the simulated SageMaker stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-oneshot --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (or ``all``) through ``repro``'s public API for about
``--seconds`` of repeated, cold-started repetitions.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s`` -- median seconds to build inputs and objects before the
  first timed operation, over at least five fresh builds;
* ``peak_rss_mb`` -- the process's host memory high-water mark;
* ``ops_per_s`` -- operations per host second: simulated requests
  (serve-oneshot, llm-continuous), kernel launches with the race
  detector off (jit-kernels), files (analysis-sweep);
* ``work_per_s`` -- simulated work per host second: requests
  (serve-oneshot), output tokens (llm-continuous), kernel threads under
  the race detector (jit-kernels), source lines (analysis-sweep).

Times and rates are medians over the run's repetitions, scaled to a
nominal host speed: a shared host's speed can drift by 2x within
minutes, so a fixed loop is timed before, during and after every timed
region (``harness.timed``) and the region's host seconds are divided by
how much slower than nominal the host ran meanwhile.  The per-repetition
samples and slowdowns are printed too.  ``failed/attempted`` is the
error rate; it is printed with the digests of the simulated output.

``--trace 1`` alternates untraced repetitions with traced ones, in which
the public functions at each layer boundary are wrapped (see
``spans.py`` and ``harness.install_probes``), and reports every
per-layer metric as a mean per traced repetition.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def workloads() -> dict:
    from analysis_sweep import AnalysisSweep
    from jit_kernels import JitKernels
    from llm_continuous import LlmContinuous
    from serve_oneshot import ServeOneshot

    return {w.name: w for w in (ServeOneshot(), LlmContinuous(),
                                JitKernels(), AnalysisSweep())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from harness import measure

    table = workloads()
    names = list(table) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in table]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(table)} or all")
    results = []
    for name in names:
        out = measure(table[name], args.seed, args.seconds,
                      bool(args.trace))
        info, result = out["info"], out["result"]
        print(f"# {name}: {json.dumps(info, sort_keys=True)}")
        for metric, v in result["metrics"].items():
            print(f"#   {metric:40s} {v['value']:16.6g} {v['unit']}")
        results.append(result)
    merged = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}/{m}": v for n, r in zip(names, results)
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
