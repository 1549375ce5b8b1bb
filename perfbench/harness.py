"""Repetition loop, cold-state resets, probes and metric assembly.

Every repetition of a :class:`Workload` starts cold: the program's
public resets run and the garbage collector is emptied, then the set-up
is timed, then the run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent

#: set-up is timed on at least this many fresh builds per run
MIN_SETUPS = 9
#: repetitions per run, at least (outputs are compared between them)
MIN_REPS = 2
#: seconds one :func:`_spin_s` loop takes at nominal host speed
#: (CPython 3.11 on the 2-core Xeon host the benchmark was defined on)
SPIN_NOMINAL_S = 0.0005
#: seconds between host-speed samples while a workload runs
SAMPLE_INTERVAL_S = 0.1


@dataclass
class Rep:
    """One timed repetition of a workload."""

    seconds: float          # host seconds of the timed regions
    nominal_s: float        # the same at nominal host speed
    ops: int                # operations attempted
    failed: int             # operations that failed
    ops_per_s: float        # at nominal host speed
    work_per_s: float       # at nominal host speed
    digest: str             # digest of the simulated output
    errors: list[str] = field(default_factory=list)   # failed checks
    counters: dict[str, float] = field(default_factory=dict)


class Workload:
    """One named set of inputs the benchmark runs."""

    name = ""

    def setup(self, seed: int, small: bool = False):
        """Build inputs and objects from ``seed``; returns a state.
        ``small`` builds a reduced input for the untimed warm-up."""
        raise NotImplementedError

    def run(self, state, rec: Recorder | None) -> Rep:
        """The timed work; ``rec`` is ``None`` on untraced repetitions."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what :meth:`setup` built."""

    def probes(self, rec: Recorder) -> None:
        """Patch the workload's own layer boundaries, beyond the
        program's (which :func:`install_probes` patches)."""

    def close(self) -> None:
        """Release what the workload keeps across repetitions."""


def cold_reset() -> None:
    """Reset every process-wide id counter and cache the program
    exposes, so each repetition starts from the same state."""
    from repro.analysis import reset_parse_count
    from repro.analysis.summaries import clear_summary_cache
    from repro.cloud.ec2 import reset_instance_ids
    from repro.gpu import reset_default_system
    from repro.gpu.stream import reset_stream_ids

    reset_default_system()
    reset_instance_ids()
    reset_stream_ids()
    clear_summary_cache()
    reset_parse_count()
    gc.collect()


def install_probes(rec: Recorder) -> set:
    """Wrap the program's public functions at each layer boundary.
    Returns the set that collects the LLM backend's calibration keys."""
    import repro.analysis as analysis
    import repro.analysis.absint as absint
    import repro.analysis.callgraph as callgraph
    import repro.analysis.detpass as detpass
    import repro.analysis.driver as driver
    import repro.analysis.interproc as interproc
    import repro.analysis.summaries as summaries
    import repro.memcheck as memcheck
    import repro.perflint as perflint
    import repro.sanitize.astlint as astlint
    from repro.analysis.context import AnalysisContext
    from repro.cloud.cloudwatch import CloudWatch
    from repro.cloud.session import CloudSession
    from repro.gpu.device import VirtualGpu
    from repro.gpu.memory import MemoryPool
    from repro.jit.cuda import CudaKernel
    from repro.llm.backend import LlmBackend
    from repro.llm.kvcache import PagedKvCache
    from repro.obs.observer import EndpointObserver
    from repro.serve.autoscaler import Autoscaler
    from repro.serve.continuous import ContinuousBatchingSimulation
    from repro.serve.endpoint import Endpoint
    from repro.serve.simulator import EndpointSimulation
    from repro.telemetry import api as telemetry_api
    from repro.telemetry.metrics import Histogram

    def count_failed(result):
        if result is False:
            rec.counts["failed_grows"] = rec.counts.get("failed_grows", 0) + 1

    keys: set = set()

    table = [
        (EndpointSimulation, ("run",), "serve"),
        (ContinuousBatchingSimulation, ("run",), "serve"),
        (LlmBackend, ("prefill_ms",), "llm.backend.prefill"),
        (LlmBackend, ("decode_ms",), "llm.backend.decode"),
        (LlmBackend, ("sample_lengths", "serve_batch"), "llm.backend"),
        (PagedKvCache, ("pages_to_grow",), "llm.kvcache.pages_to_grow"),
        (PagedKvCache, ("release",), "llm.kvcache.admit_release"),
        (MemoryPool, ("allocate", "free"), "gpu.memory"),
        (VirtualGpu, ("launch", "launch_auto"), "gpu.device"),
        (Histogram, ("observe",), "telemetry.observe"),
        (telemetry_api, ("span", "add_event", "set_attribute", "record",
                         "observe", "count", "gauge"), "telemetry.api"),
        (EndpointObserver, ("attach", "on_resolve", "on_batch",
                            "on_tick"), "obs.hook"),
        (EndpointObserver, ("finalize",), "obs.finalize"),
        (CloudWatch, ("put_metric", "get_statistics"), "cloud.tick"),
        (CloudSession, ("advance_hours",), "cloud.tick"),
        (Autoscaler, ("evaluate",), "cloud.tick"),
        (Endpoint, ("launch_replica", "terminate_replica", "touch"),
         "cloud.tick"),
        (CudaKernel, ("classify",), "jit.classify"),
        (analysis, ("run_paths",), "analysis.report"),
        (driver, ("analyze_context",), "analysis.file"),
        (AnalysisContext, ("__init__",), "analysis.parse"),
        (astlint, ("lint_context",), "analysis.kernel"),
        (perflint, ("analyze_context",), "analysis.perflint"),
        (memcheck, ("analyze_context",), "analysis.memcheck"),
        (detpass, ("det_pass",), "analysis.det"),
        (absint, ("absint_context",), "analysis.absint"),
        (callgraph, ("build_call_graph",), "analysis.callgraph"),
        (summaries, ("build_summaries",), "analysis.summaries"),
        (interproc, ("interprocedural_pass",), "analysis.interproc"),
    ]
    for owner, attrs, layer in table:
        for attr in attrs:
            rec.wrap(owner, attr, layer)
    rec.wrap(LlmBackend, "prefill_key", "llm.backend", keys.add)
    rec.wrap(LlmBackend, "decode_key", "llm.backend", keys.add)
    rec.wrap(PagedKvCache, "grow", "llm.kvcache.grow", count_failed)
    rec.wrap(PagedKvCache, "allocate", "llm.kvcache.admit_release",
             count_failed)
    rec.keep_durations.add("analysis.file")
    return keys


#: per-layer metrics: name -> unit (every one is reported on every
#: workload; a layer the workload does not use reads 0)
PER_LAYER = {
    "serve.self_s": "s", "serve.requests": "count",
    "serve.retries": "count", "serve.batches": "count",
    "serve.backend_calls": "count", "serve.backend_s": "s",
    "llm.backend.prefill_calls": "count",
    "llm.backend.decode_calls": "count", "llm.backend.calls_s": "s",
    "llm.backend.calibrations": "count",
    "llm.backend.calibration_hit_ratio": "ratio",
    "llm.kvcache.grow_calls": "count", "llm.kvcache.grow_s": "s",
    "llm.kvcache.pages_to_grow_s": "s",
    "llm.kvcache.admit_release_s": "s",
    "llm.kvcache.failed_grows": "count", "llm.preemptions": "count",
    "llm.prefill_recompute_ratio": "ratio",
    "gpu.memory.alloc_calls": "count", "gpu.memory.alloc_s": "s",
    "gpu.device.launch_calls": "count", "gpu.device.launch_s": "s",
    "telemetry.observe_calls": "count", "telemetry.observe_s": "s",
    "telemetry.api_s": "s",
    "obs.hook_calls": "count", "obs.hook_s": "s", "obs.finalize_s": "s",
    "obs.retained_ratio": "ratio",
    "cloud.tick_s": "s",
    "jit.launches": "count", "jit.launch_s": "s",
    "jit.elementwise_threads_per_s": "1/s",
    "jit.stencil_threads_per_s": "1/s",
    "jit.reduction_threads_per_s": "1/s",
    "jit.matmul_threads_per_s": "1/s",
    "jit.divergent_threads_per_s": "1/s",
    "jit.classify_calls": "count", "jit.classify_s": "s",
    "sanitize.dynamic.checked_launch_s": "s",
    "sanitize.dynamic.races": "count",
    "analysis.files": "count", "analysis.parses": "count",
    "analysis.parse_s": "s", "analysis.kernel_s": "s",
    "analysis.perflint_s": "s", "analysis.memcheck_s": "s",
    "analysis.det_s": "s", "analysis.absint_s": "s",
    "analysis.callgraph_s": "s", "analysis.summaries_s": "s",
    "analysis.interproc_s": "s", "analysis.report_s": "s",
    "analysis.summary_cache_hit_ratio": "ratio",
    "analysis.file_p50_ms": "ms", "analysis.file_p95_ms": "ms",
    "analysis.findings": "count",
    "trace.overhead_ratio": "ratio", "trace.unattributed_ratio": "ratio",
}

#: end-to-end metrics: name -> unit
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
              "work_per_s": "1/s"}

JIT_ARCHETYPES = ("elementwise", "stencil", "reduction", "matmul",
                  "divergent")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced: list[Rep],
                  untraced: list[Rep]) -> dict[str, float]:
    """Fold the traced repetitions into the per-layer metrics, each a
    mean per traced repetition."""
    n = len(traced)
    s = rec.stats
    c = {}
    for rep in traced:
        for key, value in rep.counters.items():
            c[key] = c.get(key, 0.0) + value / n
    backend = s("serve.backend", "llm.backend", "llm.backend.prefill",
                "llm.backend.decode")
    prefill = s("llm.backend.prefill")
    decode = s("llm.backend.decode")
    llm_calls = s("llm.backend", "llm.backend.prefill",
                  "llm.backend.decode")
    calibrations = c.get("llm.backend.calibrations", 0.0)
    jit = s(*(f"jit.{a}" for a in JIT_ARCHETYPES))
    files = sorted(rec.durations.get("analysis.file", []))
    m = {
        "serve.self_s": s("serve").self_s / n,
        "serve.backend_calls": backend.calls / n,
        "serve.backend_s": backend.total_s / n,
        "llm.backend.prefill_calls": prefill.calls / n,
        "llm.backend.decode_calls": decode.calls / n,
        "llm.backend.calls_s": llm_calls.self_s / n,
        "llm.backend.calibration_hit_ratio": (
            1.0 - _ratio(calibrations * n, prefill.calls + decode.calls)
            if prefill.calls + decode.calls else 0.0),
        "llm.kvcache.grow_calls": s("llm.kvcache.grow").calls / n,
        "llm.kvcache.grow_s": s("llm.kvcache.grow").self_s / n,
        "llm.kvcache.pages_to_grow_s":
            s("llm.kvcache.pages_to_grow").self_s / n,
        "llm.kvcache.admit_release_s":
            s("llm.kvcache.admit_release").self_s / n,
        "llm.kvcache.failed_grows":
            rec.counts.get("failed_grows", 0) / n,
        "gpu.memory.alloc_calls": s("gpu.memory").calls / n,
        "gpu.memory.alloc_s": s("gpu.memory").self_s / n,
        "gpu.device.launch_calls": s("gpu.device").calls / n,
        "gpu.device.launch_s": s("gpu.device").self_s / n,
        "telemetry.observe_calls": s("telemetry.observe").calls / n,
        "telemetry.observe_s": s("telemetry.observe").self_s / n,
        "telemetry.api_s": s("telemetry.api").self_s / n,
        "obs.hook_calls": s("obs.hook").calls / n,
        "obs.hook_s": s("obs.hook").self_s / n,
        "obs.finalize_s": s("obs.finalize").self_s / n,
        "cloud.tick_s": s("cloud.tick").self_s / n,
        "jit.launches": jit.calls / n,
        "jit.launch_s": jit.self_s / n,
        "jit.classify_calls": s("jit.classify").calls / n,
        "jit.classify_s": s("jit.classify").self_s / n,
        "sanitize.dynamic.checked_launch_s":
            s("sanitize.dynamic.checked_launch").self_s / n,
        "analysis.file_p50_ms": _quantile(files, 0.50) * 1e3,
        "analysis.file_p95_ms": _quantile(files, 0.95) * 1e3,
        "trace.overhead_ratio": _ratio(
            statistics.median(r.nominal_s for r in traced),
            statistics.median(r.nominal_s for r in untraced)),
        "trace.unattributed_ratio": c.pop("trace.unattributed_ratio", 0.0),
    }
    for a in JIT_ARCHETYPES:
        m[f"jit.{a}_threads_per_s"] = _ratio(
            c.pop(f"jit.{a}_threads", 0.0) * n, s(f"jit.{a}").total_s)
    for family in ("parse", "kernel", "perflint", "memcheck", "det",
                   "absint", "callgraph", "summaries", "interproc"):
        m[f"analysis.{family}_s"] = s(f"analysis.{family}").self_s / n
    # the analysis driver's own work: per-file dispatch, merging the report
    m["analysis.report_s"] = s("analysis.file",
                               "analysis.report").self_s / n
    m.update(c)
    # host time at nominal speed, like the end-to-end metrics
    slowdown = sum(r.seconds for r in traced) / sum(r.nominal_s
                                                    for r in traced)
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {name: float(m.get(name, 0.0)) * scale.get(unit, 1.0)
            for name, unit in PER_LAYER.items()}


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not sorted_values:
        return 0.0
    k = math.ceil(q * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]


_SPIN_DATA = tuple(range(256))


def _spin_s() -> float:
    """Seconds one fixed loop of integer work takes.  It creates no
    object the collector tracks, so running it from a signal handler in
    the middle of a workload leaves the workload's heap alone."""
    data = _SPIN_DATA
    acc = 0
    start = time.perf_counter()
    for i in range(4_000):
        acc = (acc + data[i & 255]) & 0xFFFF
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn()`` and measure the host's speed while it runs.

    A shared host's speed drifts, by 2x within minutes, in phases of
    seconds.  So the fixed :func:`_spin_s` loop is timed just before
    and after ``fn``, and every ``SAMPLE_INTERVAL_S`` during it from a
    timer signal.  Returns ``fn``'s result, its host seconds (samples
    included, as spans opened inside ``fn`` see them), and its seconds
    at nominal host speed: without the samples, divided by the median
    sample over ``SPIN_NOMINAL_S``."""
    samples = [_spin_s() for _ in range(5)]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        start = time.perf_counter()
        samples.append(_spin_s())
        paused += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    samples.extend(_spin_s() for _ in range(5))
    slowdown = statistics.median(samples) / SPIN_NOMINAL_S
    return result, seconds, (seconds - paused) / slowdown


def _setup(workload, seed: int):
    """A cold, timed set-up: returns the state and nominal seconds."""
    cold_reset()
    state, _, nominal_s = timed(lambda: workload.setup(seed))
    return state, nominal_s


def _one_rep(workload, seed: int, rec: Recorder | None):
    """One cold repetition; returns it with its set-up seconds."""
    state, setup_s = _setup(workload, seed)
    try:
        gc.collect()
        if rec is None:
            rep = workload.run(state, None)
        else:
            keys = install_probes(rec)
            workload.probes(rec)
            covered = rec.top_level_s
            try:
                rep = workload.run(state, rec)
            finally:
                rec.restore()
            rep.counters["llm.backend.calibrations"] = len(keys)
            rep.counters["trace.unattributed_ratio"] = max(
                0.0, 1.0 - (rec.top_level_s - covered) / rep.seconds)
    finally:
        workload.teardown(state)
    return rep, setup_s


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for about ``seconds`` of repetitions and return
    the result object the benchmark prints."""
    try:
        return _measure(workload, seed, seconds, trace)
    finally:
        workload.close()


def _measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    cold_reset()
    state = workload.setup(seed, small=True)       # untimed warm-up
    try:
        workload.run(state, None)
    finally:
        workload.teardown(state)

    setups: list[float] = []
    untraced: list[Rep] = []
    traced: list[Rep] = []
    rec = Recorder() if trace else None
    start = last = time.perf_counter()
    # stop before a repetition that would end past ``seconds``
    while (len(untraced) + len(traced) < MIN_REPS
           or 2 * time.perf_counter() - last - start < seconds):
        last = time.perf_counter()
        traced_turn = trace and len(traced) < len(untraced)
        rep, setup_s = _one_rep(workload, seed, rec if traced_turn else None)
        (traced if traced_turn else untraced).append(rep)
        setups.append(setup_s)
    while len(setups) < MIN_SETUPS:
        state, setup_s = _setup(workload, seed)
        workload.teardown(state)
        setups.append(setup_s)

    reps = untraced + traced
    errors = [e for r in reps for e in r.errors]
    digests = sorted({r.digest for r in reps})
    if len(digests) != 1:
        errors.append(f"simulated output differs between repetitions: "
                      f"{digests}")
    if trace:
        metrics = layer_metrics(rec, traced, untraced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": statistics.median(r.ops_per_s for r in untraced),
            "work_per_s": statistics.median(r.work_per_s
                                            for r in untraced),
        }
        units = END_TO_END
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "info": {
            "workload": workload.name, "seed": seed,
            "repetitions": {"untraced": len(untraced),
                            "traced": len(traced)},
            "samples": {
                "host_slowdown": [r.seconds / r.nominal_s for r in reps],
                "setup_s": setups,
                "ops_per_s": [r.ops_per_s for r in untraced],
                "work_per_s": [r.work_per_s for r in untraced],
            },
            "error_rate": failed / attempted if attempted else 0.0,
            "digests": digests, "errors": errors,
            "env": fingerprint(),
        },
        "result": {
            "correct": not errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def fingerprint() -> dict:
    """What the numbers were measured on and with."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu,
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
