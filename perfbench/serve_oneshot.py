"""serve-oneshot: the one-shot request plane under a bursty open loop.

About 100k requests arrive on a seeded bursty schedule (a Poisson base
with a 2x window in the middle) at an endpoint of 4 replicas that a
target-tracking autoscaler may grow to 8.  An ``EndpointObserver`` at
the production level (``min_level="WARNING"``) is attached.  The
backend is analytic (a fixed cost per batch), so the request plane, the
observation hooks, telemetry and the cloud tick do all the work; the
LLM, device-memory, JIT and analysis layers do none.

Operations are simulated requests; work is the same requests.
"""

from __future__ import annotations

import hashlib

from harness import Rep, Workload, timed

BASE_QPS = 2_000.0
DURATION_MS = 40_000.0
BURST = (16_000.0, 24_000.0, 2.0)          # start, end, rate multiplier


class FixedBackend:
    """Analytic service profile: 4 ms per batch plus 1 ms per query."""

    name = "fixed"

    def serve_batch(self, queries):
        from repro.serve.backend import BatchResult

        n = len(queries)
        return BatchResult(
            service_ms=4.0 + n,
            per_query_ms=tuple(4.0 + (i + 1) for i in range(n)))


class ServeOneshot(Workload):
    name = "serve-oneshot"

    def setup(self, seed: int, small: bool = False):
        from repro.cloud.session import CloudSession
        from repro.obs import (EndpointObserver, HeadTailSampler, LogPlane,
                               SloMonitor, SloObjective, default_rules)
        from repro.serve.autoscaler import Autoscaler, TargetTrackingPolicy
        from repro.serve.endpoint import Endpoint, EndpointConfig
        from repro.serve.loadgen import bursty_trace
        from repro.serve.simulator import EndpointSimulation

        scale = 0.02 if small else 1.0
        session = CloudSession()
        endpoint = Endpoint(session, EndpointConfig(
            name="bench", instance_type="g4dn.xlarge", initial_replicas=4,
            min_replicas=4, max_replicas=8, max_batch_size=8,
            batch_timeout_ms=2.0, max_queue_depth=256))
        autoscaler = Autoscaler(
            TargetTrackingPolicy(metric="QueueDepthPerReplica", target=4.0,
                                 scale_out_cooldown_ms=500.0,
                                 scale_in_cooldown_ms=3_000.0),
            min_replicas=4, max_replicas=8,
            cloudwatch=session.cloudwatch, dimension=endpoint.name)
        observer = EndpointObserver(
            log_plane=LogPlane(max_records_per_stream=200_000,
                               min_level="WARNING"),
            sampler=HeadTailSampler(),
            monitor=SloMonitor(SloObjective(target=0.95),
                               default_rules(ms_per_hour=50.0)))
        start, end, mult = BURST
        trace = bursty_trace(BASE_QPS, DURATION_MS * scale, ["q"],
                             burst_start_ms=start * scale,
                             burst_end_ms=end * scale,
                             burst_multiplier=mult, seed=seed)
        sim = EndpointSimulation(endpoint, FixedBackend(),
                                 autoscaler=autoscaler, observer=observer)
        return sim, trace

    def probes(self, rec) -> None:
        rec.wrap(FixedBackend, "serve_batch", "serve.backend")

    def run(self, state, rec) -> Rep:
        sim, trace = state
        report, seconds, nominal_s = timed(lambda: sim.run(trace))
        return serve_rep(report, seconds, nominal_s, report.completed, sim)

    def teardown(self, state) -> None:
        sim, _ = state
        sim.endpoint.delete()


def serve_rep(report, seconds: float, nominal_s: float, work: float,
              sim) -> Rep:
    """Checks and counters shared by both serving workloads."""
    errors = []
    resolved = report.completed + report.shed + report.expired
    if report.submitted != resolved:
        errors.append(f"{report.submitted} submitted but {resolved} "
                      "resolved")
    counters = {"serve.requests": report.submitted,
                "serve.retries": report.retries,
                "serve.batches": report.batches}
    observer = sim.observer
    if observer is not None and observer.sampler.seen:
        counters["obs.retained_ratio"] = (
            len(observer.sampler.retained_requests())
            / observer.sampler.seen)
    return Rep(seconds=seconds, nominal_s=nominal_s, ops=report.submitted,
               failed=report.shed + report.expired,
               ops_per_s=report.submitted / nominal_s,
               work_per_s=work / nominal_s,
               digest=hashlib.sha256(
                   report.to_json().encode()).hexdigest()[:16],
               errors=errors, counters=counters)
