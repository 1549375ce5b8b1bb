"""Record a before/after perf trajectory file for one perfbench workload.

Usage, from the repository root::

    python3 benchmarks/record_bench.py --parent ../parent-checkout \\
        --change . --workload analysis-sweep --seed 301 \\
        --out BENCH_analysis-sweep.json

Runs ``perfbench/run.py`` in each checkout as fresh processes of the
length ``BENCHMARK.json`` fixes (``run_seconds``), interleaved in
``PAIRS`` pairs: pair *i* runs the parent first when *i* is even and
the change first when it is odd, so a drift in host speed lands on
both sides.  Each side then gets one traced run (``--trace 1``) for its
per-layer split.  The JSON written holds, per side, the commit and
source digest, the environment fingerprint, every run's end-to-end
metrics and per-repetition samples, the median, quartiles and IQR of
each end-to-end metric ``BENCHMARK.json`` lists, the findings digests
and the traced per-layer block; and, per metric, the ratio of the
medians and how many pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: interleaved parent/change pairs per recording
PAIRS = 10

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One fresh ``perfbench/run.py`` process, flattened to its metric
    values, per-repetition samples, digests and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    prefix = f"# {workload}: "
    info = json.loads(next(line for line in lines
                           if line.startswith(prefix))[len(prefix):])
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "samples": info["samples"],
        "repetitions": info["repetitions"],
        "digests": info["digests"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": info["env"],
    }


def quartiles(values: list[float]) -> dict:
    q25, q50, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q50, "q25": q25, "q75": q75, "iqr": q75 - q25,
            "n": len(values)}


def compare(parent: list[dict], change: list[dict],
            end_to_end: dict) -> dict:
    """Per metric: ratio of the medians, how many pairs the change won,
    and whether the medians differ by more than the parent's IQR."""
    out = {}
    for metric, better in end_to_end.items():
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in zip(parent, change)
                   if sign * (c["metrics"][metric]
                              - p["metrics"][metric]) > 0)
        before = quartiles([r["metrics"][metric] for r in parent])
        after = quartiles([r["metrics"][metric] for r in change])
        gap = abs(after["median"] - before["median"])
        out[metric] = {
            "better": better,
            "ratio_of_medians": after["median"] / before["median"],
            "change_wins": wins,
            "pairs": len(parent),
            "median_gap": gap,
            "parent_iqr": before["iqr"],
            "gap_exceeds_parent_iqr": gap > before["iqr"],
        }
    return out


def record(parent: Path, change: Path, workload: str, seed: int) -> dict:
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": parent, "change": change}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = []
    for i in range(PAIRS):
        first = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in first:
            run = run_once(checkouts[side], workload, seed, seconds, 0)
            runs[side].append(run)
            print(f"pair {i} {side}: ops_per_s "
                  f"{run['metrics']['ops_per_s']:.3f}", file=sys.stderr)
        order.append(list(first))
    sides = {}
    for side in SIDES:
        env = dict(runs[side][0]["env"])
        traced = run_once(checkouts[side], workload, seed, seconds, 1)
        sides[side] = {
            "commit": env.pop("git_commit"),
            "src_sha256": env.pop("src_sha256"),
            "env": env,
            "digests": sorted({d for r in runs[side] for d in r["digests"]}),
            "correct": all(r["correct"] for r in runs[side]),
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "summary": {m: quartiles([r["metrics"][m] for r in runs[side]])
                        for m in end_to_end},
            "runs": [{k: r[k] for k in ("metrics", "samples", "repetitions")}
                     for r in runs[side]],
            "per_layer": {k: traced[k] for k in ("metrics", "repetitions",
                                                 "digests")},
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "order": order,
        "command": (f"python3 perfbench/run.py --workload {workload} "
                    f"--seed {seed} --seconds {seconds} --trace 0"),
        "sides": sides,
        "comparison": compare(runs["parent"], runs["change"], end_to_end),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = record(args.parent.resolve(), args.change.resolve(),
                    args.workload, args.seed)
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ops = report["comparison"]["ops_per_s"]
    print(f"{args.workload}: ops_per_s x{ops['ratio_of_medians']:.2f}, "
          f"change won {ops['change_wins']}/{ops['pairs']} pairs; "
          f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
