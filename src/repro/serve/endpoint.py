"""Endpoint fleets: EC2-backed replicas behind one SageMaker endpoint.

An :class:`Endpoint` is the SageMaker real-time-inference abstraction
(Bagai's comparative-deployment framing): a named, registered resource
owning N model **replicas**, each backed by a real
:class:`~repro.cloud.ec2.Ec2Instance` that accrues billing while it
runs.  The request plane (:mod:`repro.serve.simulator`) routes to
replicas; this module owns their lifecycle:

* launch — on-demand via :class:`~repro.cloud.ec2.Ec2Service` or spot
  via :class:`~repro.cloud.spot.SpotService`; new replicas spend
  ``provision_delay_ms`` in ``Provisioning`` before serving;
* drain — scale-in marks a replica ``Draining``: it takes no new
  requests, finishes its queue, then its instance terminates;
* interruption — a spot reclaim terminates the instance immediately;
  in-flight and queued work is re-dispatched to surviving replicas.

The endpoint registers itself with
:class:`~repro.cloud.sagemaker.SageMakerService` so the control plane
(and the :class:`~repro.cloud.reaper.IdleReaper`) can see it, and keeps
``last_activity_h`` / ``recent_utilization`` fresh for the reaper's
endpoint sweep.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.cloud.pricing import get_instance_type, plan_cost
from repro.cloud.session import CloudSession
from repro.cloud.spot import SpotService
from repro.errors import CloudError, ReproError
from repro.serve.request import Request
from repro.telemetry import api as telemetry

MS_PER_HOUR = 3.6e6


class EndpointState(str, Enum):
    IN_SERVICE = "InService"
    DELETED = "Deleted"


class ReplicaState(str, Enum):
    PROVISIONING = "Provisioning"
    IN_SERVICE = "InService"
    DRAINING = "Draining"
    TERMINATED = "Terminated"


@dataclass(frozen=True)
class EndpointConfig:
    """The declarative half of an endpoint (what perflint pre-flights).

    ``expected_hours`` is the planned lifetime used for pre-flight
    pricing: the COST pass prices the *peak* fleet
    (``max_replicas × instance_type × expected_hours``) against the
    course budget before a single simulated dollar accrues.
    """

    name: str
    instance_type: str = "g5.xlarge"
    initial_replicas: int = 1
    min_replicas: int = 1
    max_replicas: int = 4
    max_batch_size: int = 8
    batch_timeout_ms: float = 5.0
    max_queue_depth: int = 32
    default_deadline_ms: float | None = None
    provision_delay_ms: float = 200.0
    spot: bool = False
    expected_hours: float = 1.0
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("endpoint needs a name")
        if self.initial_replicas < 1:
            raise ReproError("endpoint needs at least one initial replica")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ReproError(
                f"need 1 <= min_replicas ({self.min_replicas}) <= "
                f"max_replicas ({self.max_replicas})")
        if not self.min_replicas <= self.initial_replicas <= self.max_replicas:
            raise ReproError("initial_replicas must sit in [min, max]")
        if self.max_batch_size < 1:
            raise ReproError("max_batch_size must be >= 1")
        if self.batch_timeout_ms < 0:
            raise ReproError("batch_timeout_ms must be >= 0")
        if self.max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        if self.provision_delay_ms < 0:
            raise ReproError("provision_delay_ms must be >= 0")
        if self.expected_hours <= 0:
            raise ReproError("expected_hours must be positive")
        get_instance_type(self.instance_type)  # fail fast on unknown SKUs

    def peak_cost_usd(self) -> float:
        """Pre-flight price of the autoscaled-to-peak fleet."""
        return plan_cost(self.instance_type, self.expected_hours,
                         self.max_replicas)


class Replica:
    """One model replica: an instance, a bounded queue, a batch slot."""

    def __init__(self, replica_id: int, instance,
                 state: ReplicaState = ReplicaState.IN_SERVICE) -> None:
        self.replica_id = replica_id
        self.instance = instance
        self.state = state
        self.queue: deque[Request] = deque()
        # the batch currently occupying the replica: [(request, finish_ms)]
        self.in_flight: list[tuple[Request, float]] | None = None
        self.busy_from_ms = 0.0
        self.busy_until_ms = 0.0
        # epochs invalidate stale scheduled events (timeouts / completions)
        self.service_epoch = 0
        self.timer_epoch = 0
        self.timer_armed = False      # a batch-timeout window is open
        self.invocations = 0          # batches served, lifetime
        self.queries_served = 0
        # busy intervals since the last metrics tick, for GPU utilization
        self.recent_busy: list[tuple[float, float]] = []

    @property
    def outstanding(self) -> int:
        """Queued + in-flight requests — the load-balancer's sort key."""
        return len(self.queue) + (len(self.in_flight) if self.in_flight else 0)

    @property
    def accepts_work(self) -> bool:
        return self.state is ReplicaState.IN_SERVICE

    def busy_ms_in(self, start_ms: float, end_ms: float) -> float:
        """Busy time overlapping ``[start_ms, end_ms)``, including the
        batch still running."""
        intervals = list(self.recent_busy)
        if self.in_flight is not None:
            intervals.append((self.busy_from_ms, self.busy_until_ms))
        busy = 0.0
        for a, b in intervals:
            busy += max(0.0, min(b, end_ms) - max(a, start_ms))
        return busy

    def prune_busy(self, before_ms: float) -> None:
        self.recent_busy = [(a, b) for a, b in self.recent_busy
                            if b > before_ms]


class Endpoint:
    """A SageMaker-style real-time endpoint over a cloud session."""

    _ids = itertools.count(1)

    def __init__(self, session: CloudSession, config: EndpointConfig,
                 owner: str = "serve-lab",
                 spot_service: SpotService | None = None) -> None:
        if config.spot and spot_service is None:
            spot_service = SpotService(session.ec2)
        self.session = session
        self.config = config
        self.owner = owner
        self.spot_service = spot_service
        self.state = EndpointState.IN_SERVICE
        self.name = config.name
        self.tags = dict(config.tags)
        self.replicas: list[Replica] = []
        self._replica_ids = itertools.count(0)
        self.instance_ids: set[str] = set()   # every instance ever launched
        self.interrupted_replicas = 0
        self.last_activity_h = session.now_h
        self.recent_utilization: float | None = None
        with telemetry.span("sagemaker.CreateEndpoint", kind="cloud",
                            attributes={"endpoint": self.name,
                                        "type": config.instance_type,
                                        "replicas": config.initial_replicas}):
            session.sagemaker.register_endpoint(self.name, self)
            for _ in range(config.initial_replicas):
                self.launch_replica(state=ReplicaState.IN_SERVICE)

    @property
    def arn(self) -> str:
        return f"arn:student/{self.owner}/endpoint/{self.name}"

    # -- fleet views ------------------------------------------------------

    def in_service(self) -> list[Replica]:
        return [r for r in self.replicas
                if r.state is ReplicaState.IN_SERVICE]

    def provisioning(self) -> list[Replica]:
        return [r for r in self.replicas
                if r.state is ReplicaState.PROVISIONING]

    def active(self) -> list[Replica]:
        """Replicas still doing or about to do work (not terminated)."""
        return [r for r in self.replicas
                if r.state is not ReplicaState.TERMINATED]

    # -- lifecycle --------------------------------------------------------

    def launch_replica(self,
                       state: ReplicaState = ReplicaState.PROVISIONING
                       ) -> Replica:
        """Launch one instance and wrap it as a replica.  New capacity
        starts ``Provisioning``; only the simulator promotes it after the
        provision delay (initial fleet skips the delay)."""
        if self.state is not EndpointState.IN_SERVICE:
            raise CloudError(f"endpoint {self.name} is {self.state.value}")
        tags = {"endpoint": self.name}
        if self.config.spot:
            req = self.spot_service.request(
                self.config.instance_type, owner=self.owner, tags=tags)
            instance = req.instance
        else:
            instance = self.session.ec2.run_instance(
                self.config.instance_type, owner=self.owner, tags=tags)
        replica = Replica(next(self._replica_ids), instance, state=state)
        self.replicas.append(replica)
        self.instance_ids.add(instance.instance_id)
        telemetry.add_event("endpoint.launch_replica",
                            endpoint=self.name,
                            replica=replica.replica_id,
                            instance=instance.instance_id)
        return replica

    def terminate_replica(self, replica: Replica) -> None:
        if replica.state is ReplicaState.TERMINATED:
            return
        replica.state = ReplicaState.TERMINATED
        self.session.ec2.terminate(replica.instance.instance_id)
        telemetry.add_event("endpoint.terminate_replica",
                            endpoint=self.name,
                            replica=replica.replica_id)

    def touch(self, now_h: float | None = None) -> None:
        """Record endpoint activity (what the idle reaper looks at)."""
        now = self.session.now_h if now_h is None else now_h
        self.last_activity_h = max(self.last_activity_h, now)

    def delete(self) -> None:
        """Terminate every replica and deregister — the reaper's (and the
        lab's) teardown path."""
        if self.state is EndpointState.DELETED:
            return
        with telemetry.span("sagemaker.DeleteEndpoint", kind="cloud",
                            attributes={"endpoint": self.name}):
            for replica in self.replicas:
                self.terminate_replica(replica)
            self.state = EndpointState.DELETED
            self.session.sagemaker.deregister_endpoint(self.name)

    # -- billing ----------------------------------------------------------

    def billed_cost_usd(self, since_record_index: int = 0) -> float:
        """Dollars accrued by this endpoint's instances, optionally only
        counting billing records from ``since_record_index`` on (how a
        run isolates its own cost from the endpoint's earlier life)."""
        records = self.session.billing.records[since_record_index:]
        return sum(r.cost_usd for r in records
                   if r.instance_id in self.instance_ids)
