"""The request plane: a discrete-event simulation of one endpoint.

Everything between "a request arrives" and "a response (or 429) leaves"
runs here, on a millisecond event heap:

* **routing** — least-outstanding-requests across ``InService``
  replicas (the ALB algorithm SageMaker endpoints sit behind);
* **admission control** — a bounded per-replica queue; a full fleet
  fast-fails the request (HTTP 429) and the client retries with
  exponential backoff until its budget runs out (then it counts as
  *shed*);
* **dynamic batching** — an idle replica opens a batch window on first
  arrival and serves when either ``max_batch_size`` queries gathered or
  ``batch_timeout_ms`` elapsed; a busy replica batches whatever queued
  while it served (continuous batching).  Service profiles come from
  the :class:`~repro.serve.backend.ModelBackend`, measured on the
  simulated GPU;
* **deadlines** — a request whose deadline passes while queued is
  dropped as *expired* at dequeue time;
* **autoscaling ticks** — every ``tick_ms`` the fleet publishes
  CloudWatch metrics, cloud time advances (replicas accrue real
  billing), and the :class:`~repro.serve.autoscaler.Autoscaler` — when
  attached — scales the fleet with graceful drain on the way in;
* **spot interruptions** — injected reclaims terminate a replica
  mid-flight; its queued and in-flight requests re-dispatch to the
  survivors and a replacement launches.  No request is ever lost or
  double-counted; the report asserts conservation.

The loop is fully deterministic: the heap breaks ties by insertion
order, every random choice upstream (trace, reservoir) is seeded, and
cloud/billing timestamps derive from the event clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.serve.autoscaler import Autoscaler, METRIC_NAMESPACE
from repro.serve.backend import ModelBackend
from repro.serve.endpoint import (
    MS_PER_HOUR,
    Endpoint,
    Replica,
    ReplicaState,
)
from repro.serve.loadgen import ArrivalTrace
from repro.serve.report import SloReport
from repro.serve.request import (
    OUTCOME_COMPLETED,
    OUTCOME_EXPIRED,
    OUTCOME_SHED,
    Request,
    RetryPolicy,
)
from repro.telemetry import api as telemetry
from repro.telemetry.metrics import Histogram

LATENCY_RESERVOIR = 8192
LATENCY_EXEMPLARS = 5
HOURS_PER_MS = 1.0 / MS_PER_HOUR


def _ns(ms: float) -> int:
    return int(round(ms * 1e6))


def latency_histogram(name: str) -> Histogram:
    """A reservoir-bounded, exemplar-keeping latency distribution."""
    return Histogram(name, max_samples=LATENCY_RESERVOIR,
                     max_exemplars=LATENCY_EXEMPLARS)


class EndpointSimulation:
    """Drive one :class:`~repro.serve.endpoint.Endpoint` with a trace."""

    def __init__(self, endpoint: Endpoint, backend: ModelBackend, *,
                 autoscaler: Autoscaler | None = None,
                 retry_policy: RetryPolicy | None = None,
                 tick_ms: float = 25.0,
                 settle_ms: float = 0.0,
                 observer=None) -> None:
        if tick_ms <= 0:
            raise ReproError("tick_ms must be positive")
        self.endpoint = endpoint
        self.backend = backend
        self.autoscaler = autoscaler
        self.retry_policy = retry_policy or RetryPolicy()
        self.tick_ms = tick_ms
        self.settle_ms = settle_ms
        # An observation layer (repro.obs's EndpointObserver, or anything
        # with the same hooks).  When attached it owns span emission for
        # requests/batches — sampled and bounded — so the inline
        # every-request telemetry.record calls are suppressed.
        self.observer = observer

    # -- event plumbing ---------------------------------------------------

    def _push(self, time_ms: float, kind: str, data) -> None:
        heapq.heappush(self._events,
                       (time_ms, next(self._seq), kind, data))

    def _advance_cloud(self) -> None:
        """Bring the cloud session's hour clock up to the event clock, so
        instance lifecycle changes settle billing at the exact moment."""
        target_h = self._epoch_h + self.now_ms * HOURS_PER_MS
        session = self.endpoint.session
        if target_h > session.now_h:
            session.advance_hours(target_h - session.now_h)

    def _timestamp_h(self, time_ms: float) -> float:
        return self._epoch_h + time_ms * HOURS_PER_MS

    # -- the run ----------------------------------------------------------

    def run(self, trace: ArrivalTrace,
            interruptions: Iterable[tuple[float, int]] = ()) -> SloReport:
        """Replay ``trace`` against the endpoint; returns the SLO report.

        ``interruptions`` is a list of ``(time_ms, replica_id)`` spot
        reclaims to inject.
        """
        ep = self.endpoint
        if not ep.in_service():
            raise ReproError(f"endpoint {ep.name} has no serving replicas")
        self._events: list = []
        self._seq = itertools.count()
        self.now_ms = 0.0
        self._epoch_h = ep.session.now_h
        self._billing_start = len(ep.session.billing.records)
        self._last_tick_ms = 0.0
        self._completions_since_tick = 0
        self._trace = trace
        self.completed = 0
        self.shed = 0
        self.expired = 0
        self.retries = 0
        self.batches = 0
        self.batch_queries = 0
        self.last_finish_ms = 0.0
        self.peak_replicas = len(ep.in_service())
        self.replica_timeline: list[tuple[float, int, int]] = []
        self._batch_of_replica: dict[int, int] = {}
        self.latency_hist = latency_histogram("serve.latency_ms")
        requests = [
            Request(request_id=i, query=a.query, arrival_ms=a.time_ms,
                    deadline_ms=(a.time_ms + ep.config.default_deadline_ms
                                 if ep.config.default_deadline_ms is not None
                                 else None))
            for i, a in enumerate(trace.arrivals)
        ]
        self._requests = requests
        with telemetry.span("serve.run", kind="workflow",
                            attributes={"endpoint": ep.name,
                                        "trace": trace.name,
                                        "requests": len(requests)}):
            if self.observer is not None:
                self.observer.attach(self)
            for req in requests:
                self._push(req.arrival_ms, "arrival", req)
            for time_ms, replica_id in interruptions:
                self._push(float(time_ms), "interrupt", int(replica_id))
            self._push(self.tick_ms, "tick", None)
            while self._events:
                time_ms, _, kind, data = heapq.heappop(self._events)
                self.now_ms = time_ms
                self._dispatch(kind, data)
            self._advance_cloud()
            if self.observer is not None:
                self.observer.finalize()
        return self._build_report()

    def _dispatch(self, kind: str, data) -> None:
        """Route one popped event to its handler.  Subclasses that add
        event kinds (the continuous-batching plane's ``iter``) extend
        this; an unknown kind is a bug, not a silent drop."""
        if kind == "arrival":
            self._on_arrival(data)
        elif kind == "timeout":
            self._on_timeout(*data)
        elif kind == "done":
            self._on_done(*data)
        elif kind == "provisioned":
            self._on_provisioned(data)
        elif kind == "interrupt":
            self._on_interrupt(data)
        elif kind == "tick":
            self._on_tick()
        else:
            raise ReproError(f"unknown event kind {kind!r}")

    # -- arrivals / admission ---------------------------------------------

    def _on_arrival(self, req: Request) -> None:
        if req.expired(self.now_ms):
            self._expire(req)
            return
        cfg = self.endpoint.config
        candidates = [r for r in self.endpoint.replicas
                      if r.accepts_work and len(r.queue) < cfg.max_queue_depth]
        if not candidates:
            self._reject(req)
            return
        replica = min(candidates,
                      key=lambda r: (r.outstanding, r.replica_id))
        replica.queue.append(req)
        self._pump(replica)

    def _reject(self, req: Request) -> None:
        """Admission control said 429: back off and retry, or shed."""
        req.attempts += 1
        telemetry.count("serve.throttled")
        if req.attempts <= self.retry_policy.max_retries:
            self.retries += 1
            delay = self.retry_policy.delay_ms(req.attempts)
            self._push(self.now_ms + delay, "arrival", req)
        else:
            self._shed(req)

    # -- batching ---------------------------------------------------------

    def _pump(self, replica: Replica) -> None:
        """Start a batch, arm the batch-timeout window, or wait."""
        if replica.in_flight is not None or not replica.queue:
            return
        if replica.state is ReplicaState.TERMINATED:
            return
        cfg = self.endpoint.config
        if (len(replica.queue) >= cfg.max_batch_size
                or replica.state is ReplicaState.DRAINING
                or cfg.batch_timeout_ms == 0):
            self._start_batch(replica)
            return
        if not replica.timer_armed:
            replica.timer_armed = True
            replica.timer_epoch += 1
            self._push(self.now_ms + cfg.batch_timeout_ms, "timeout",
                       (replica, replica.timer_epoch))

    def _on_timeout(self, replica: Replica, epoch: int) -> None:
        if epoch != replica.timer_epoch or not replica.timer_armed:
            return
        replica.timer_armed = False
        if replica.in_flight is None and replica.queue \
                and replica.state is not ReplicaState.TERMINATED:
            self._start_batch(replica)

    def _start_batch(self, replica: Replica) -> None:
        cfg = self.endpoint.config
        replica.timer_armed = False
        replica.timer_epoch += 1
        batch: list[Request] = []
        while replica.queue and len(batch) < cfg.max_batch_size:
            req = replica.queue.popleft()
            if req.expired(self.now_ms):
                self._expire(req)
                continue
            batch.append(req)
        if not batch:
            if replica.state is ReplicaState.DRAINING:
                self._finish_drain(replica)
            return
        result = self.backend.serve_batch([r.query for r in batch])
        replica.service_epoch += 1
        replica.in_flight = [(req, self.now_ms + offset)
                             for req, offset in zip(batch,
                                                    result.per_query_ms)]
        replica.busy_from_ms = self.now_ms
        replica.busy_until_ms = self.now_ms + result.service_ms
        replica.invocations += 1
        self.batches += 1
        self.batch_queries += len(batch)
        self._batch_of_replica[replica.replica_id] = self.batches
        self._push(replica.busy_until_ms, "done",
                   (replica, replica.service_epoch))

    def _on_done(self, replica: Replica, epoch: int) -> None:
        if epoch != replica.service_epoch or replica.in_flight is None:
            return
        batch_size = len(replica.in_flight)
        batch_id = self._batch_of_replica.get(replica.replica_id, 0)
        for req, finish_ms in replica.in_flight:
            self._complete(replica, req, finish_ms, batch_id, batch_size)
        self._record_batch(replica, batch_id, batch_size,
                           replica.busy_from_ms, replica.busy_until_ms)
        replica.recent_busy.append((replica.busy_from_ms,
                                    replica.busy_until_ms))
        replica.in_flight = None
        if replica.queue:
            self._start_batch(replica)
        elif replica.state is ReplicaState.DRAINING:
            self._finish_drain(replica)

    # -- resolution: the one place a request leaves the plane -------------

    def _expire(self, req: Request) -> None:
        req.resolve(OUTCOME_EXPIRED, self.now_ms)
        self.expired += 1
        telemetry.count("serve.expired")
        if self.observer is not None:
            self.observer.on_resolve(req)

    def _shed(self, req: Request) -> None:
        req.resolve(OUTCOME_SHED, self.now_ms)
        self.shed += 1
        telemetry.count("serve.shed")
        if self.observer is not None:
            self.observer.on_resolve(req)

    def _complete(self, replica: Replica, req: Request, finish_ms: float,
                  batch_id: int, batch_size: int,
                  tokens: int | None = None) -> None:
        """Resolve ``req`` as served by ``replica`` at ``finish_ms``;
        ``tokens`` is the generated-token count (iteration plane only)."""
        req.replica_id = replica.replica_id
        req.batch_size = batch_size
        if tokens is not None:
            req.tokens_generated = tokens
        req.resolve(OUTCOME_COMPLETED, finish_ms)
        latency = finish_ms - req.arrival_ms
        self.completed += 1
        self._completions_since_tick += 1
        self.last_finish_ms = max(self.last_finish_ms, finish_ms)
        self.latency_hist.observe(latency, exemplar=f"{req.request_id:012d}")
        replica.queries_served += 1
        telemetry.observe("serve.latency_ms", latency)
        telemetry.count("serve.completed")
        if self.observer is not None:
            self.observer.on_resolve(req, batch_id=batch_id)
            return
        attributes = {"request_id": req.request_id,
                      "replica": replica.replica_id,
                      "batch_size": batch_size}
        if tokens is not None:
            attributes["tokens"] = tokens
        attributes["attempts"] = req.attempts
        telemetry.record("serve.request", "request", _ns(req.arrival_ms),
                         _ns(finish_ms), attributes=attributes)

    def _record_batch(self, replica: Replica, batch_id: int, size: int,
                      start_ms: float, end_ms: float, *,
                      label: str = "serve.batch", phase: str = "",
                      tokens: int = 0, calibration_key=None) -> None:
        """Record one served batch (or prefill/decode iteration, when
        ``phase`` is set) after its requests have resolved."""
        if self.observer is not None:
            self.observer.on_batch(
                batch_id, replica.replica_id, size, start_ms, end_ms,
                label=label, phase=phase, tokens=tokens,
                calibration_key=calibration_key)
            return
        if phase:
            attributes = {"batch_id": batch_id,
                          "replica": replica.replica_id,
                          "batch_size": size, "phase": phase,
                          "tokens": tokens}
        else:
            attributes = {"replica": replica.replica_id, "batch_size": size}
        telemetry.record(label, "stage", _ns(start_ms), _ns(end_ms),
                         attributes=attributes)

    # -- fleet lifecycle --------------------------------------------------

    def _on_provisioned(self, replica: Replica) -> None:
        if replica.state is ReplicaState.PROVISIONING:
            replica.state = ReplicaState.IN_SERVICE
            telemetry.add_event("endpoint.replica_in_service",
                                replica=replica.replica_id)

    def _finish_drain(self, replica: Replica) -> None:
        self._advance_cloud()
        self.endpoint.terminate_replica(replica)

    def _on_interrupt(self, replica_id: int) -> None:
        ep = self.endpoint
        replica = next((r for r in ep.replicas
                        if r.replica_id == replica_id), None)
        if replica is None or replica.state is ReplicaState.TERMINATED:
            return
        self._advance_cloud()
        displaced = [req for req, _ in (replica.in_flight or [])]
        displaced.extend(replica.queue)
        if replica.in_flight is not None:
            # the aborted batch still occupied the GPU until the reclaim
            replica.recent_busy.append((replica.busy_from_ms, self.now_ms))
        replica.in_flight = None
        replica.queue.clear()
        replica.service_epoch += 1
        replica.timer_epoch += 1
        replica.timer_armed = False
        ep.terminate_replica(replica)
        ep.interrupted_replicas += 1
        telemetry.add_event("endpoint.spot_interruption",
                            replica=replica_id,
                            displaced=len(displaced))
        fresh = ep.launch_replica(state=ReplicaState.PROVISIONING)
        self._push(self.now_ms + ep.config.provision_delay_ms,
                   "provisioned", fresh)
        # re-dispatch displaced work onto the survivors, oldest first
        for req in displaced:
            self._on_arrival(req)

    # -- ticks: metrics, billing, autoscaling -----------------------------

    def _publish_metrics(self, serving: Sequence[Replica]) -> float:
        """Flush fleet metrics to CloudWatch; returns the timestamp."""
        cw = self.endpoint.session.cloudwatch
        ts = self._timestamp_h(self.now_ms)
        n = max(len(serving), 1)
        window_ms = max(self.now_ms - self._last_tick_ms, 1e-9)
        invocations = self._completions_since_tick / n
        queue_depth = sum(len(r.queue) for r in serving) / n
        busy_ms = sum(r.busy_ms_in(self._last_tick_ms, self.now_ms)
                      for r in serving)
        util = 100.0 * busy_ms / (n * window_ms)
        name = self.endpoint.name
        cw.put_metric(METRIC_NAMESPACE, "InvocationsPerReplica", name,
                      invocations, ts)
        cw.put_metric(METRIC_NAMESPACE, "QueueDepthPerReplica", name,
                      queue_depth, ts)
        cw.put_metric(METRIC_NAMESPACE, "GPUUtilization", name, util, ts)
        for r in serving:
            r_util = 100.0 * r.busy_ms_in(
                self._last_tick_ms, self.now_ms) / window_ms
            cw.put_metric(METRIC_NAMESPACE, "GPUUtilization",
                          r.instance.instance_id, r_util, ts)
            r.prune_busy(self.now_ms)
        telemetry.gauge("serve.queue_depth", queue_depth)
        telemetry.gauge("serve.gpu_utilization", util)
        telemetry.gauge("serve.replicas", float(len(serving)))
        self.endpoint.recent_utilization = util
        return ts

    def _on_tick(self) -> None:
        ep = self.endpoint
        serving = [r for r in ep.replicas
                   if r.state in (ReplicaState.IN_SERVICE,
                                  ReplicaState.DRAINING)]
        ts = self._publish_metrics(serving)
        self._advance_cloud()
        if self.observer is not None:
            self.observer.on_tick(self.now_ms, ts)
        if self._completions_since_tick:
            ep.touch()
        self._completions_since_tick = 0
        desired = len(ep.in_service())
        if self.autoscaler is not None:
            current = len(ep.in_service()) + len(ep.provisioning())
            decision = self.autoscaler.evaluate(self.now_ms, current,
                                                (ts, ts))
            desired = decision.desired
            if decision.action == "scale_out":
                for _ in range(decision.desired - current):
                    fresh = ep.launch_replica(
                        state=ReplicaState.PROVISIONING)
                    self._push(
                        self.now_ms + ep.config.provision_delay_ms,
                        "provisioned", fresh)
            elif decision.action == "scale_in":
                self._scale_in(current - decision.desired)
        n_in_service = len(ep.in_service())
        self.peak_replicas = max(self.peak_replicas, n_in_service)
        self.replica_timeline.append((self.now_ms, n_in_service, desired))
        self._last_tick_ms = self.now_ms
        if self._more_work_pending():
            self._push(self.now_ms + self.tick_ms, "tick", None)

    def _scale_in(self, excess: int) -> None:
        """Drain the emptiest replicas; kill not-yet-serving ones first."""
        ep = self.endpoint
        victims: list[Replica] = []
        provisioning = sorted(ep.provisioning(),
                              key=lambda r: -r.replica_id)
        victims.extend(provisioning[:excess])
        remaining = excess - len(victims)
        if remaining > 0:
            in_service = sorted(ep.in_service(),
                                key=lambda r: (r.outstanding,
                                               -r.replica_id))
            victims.extend(in_service[:remaining])
        for victim in victims:
            if victim.state is ReplicaState.PROVISIONING:
                ep.terminate_replica(victim)
            else:
                victim.state = ReplicaState.DRAINING
                telemetry.add_event("endpoint.drain",
                                    replica=victim.replica_id)
                if victim.in_flight is None and not victim.queue:
                    self._finish_drain(victim)

    def _more_work_pending(self) -> bool:
        if any(kind != "tick" for _, _, kind, _ in self._events):
            return True
        if any(r.outstanding or r.in_flight is not None
               for r in self.endpoint.replicas):
            return True
        if self.now_ms < self._trace.duration_ms + self.settle_ms:
            return True
        return False

    # -- the report -------------------------------------------------------

    def _build_report(self) -> SloReport:
        ep = self.endpoint
        trace = self._trace
        submitted = len(self._requests)
        resolved = self.completed + self.shed + self.expired
        if resolved != submitted:
            raise ReproError(
                f"request conservation violated: {submitted} submitted "
                f"but {resolved} resolved ({self.completed} completed, "
                f"{self.shed} shed, {self.expired} expired)")
        effective_ms = max(trace.duration_ms, self.last_finish_ms)
        cost = ep.billed_cost_usd(self._billing_start)
        hist = self.latency_hist
        return SloReport(
            endpoint=ep.name,
            instance_type=ep.config.instance_type,
            backend=self.backend.name,
            trace=trace.name,
            seed=trace.seed,
            duration_ms=trace.duration_ms,
            offered_qps=trace.offered_qps,
            achieved_qps=self.completed / (effective_ms / 1e3),
            submitted=submitted,
            completed=self.completed,
            shed=self.shed,
            expired=self.expired,
            retries=self.retries,
            interrupted_replicas=ep.interrupted_replicas,
            latency_mean_ms=hist.mean,
            latency_p50_ms=hist.percentile(50),
            latency_p95_ms=hist.percentile(95),
            latency_p99_ms=hist.percentile(99),
            latency_p999_ms=hist.percentile(99.9),
            shed_rate=self.shed / submitted if submitted else 0.0,
            error_rate=((self.shed + self.expired) / submitted
                        if submitted else 0.0),
            batches=self.batches,
            avg_batch_size=(self.batch_queries / self.batches
                            if self.batches else 0.0),
            peak_replicas=self.peak_replicas,
            scaling_actions=sum(
                1 for d in (self.autoscaler.decisions
                            if self.autoscaler else [])
                if d.action != "none"),
            cost_usd=cost,
            cost_per_1k_usd=(1e3 * cost / self.completed
                             if self.completed else 0.0),
            replica_timeline=tuple(self.replica_timeline),
            latency_exemplars=tuple(hist.top_exemplars()),
        )
