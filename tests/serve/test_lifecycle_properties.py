"""Property-based tests (hypothesis) for the request lifecycle.

Both request planes resolve every request through the same
expire/shed/complete path.  Whatever the load, deadline or spot
reclaim, each request ends with exactly one outcome, the per-outcome
counts are what the report says, and (continuous plane) every replica's
KV cache and device pool drain to zero at teardown — interrupted
replicas included.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cloud.session import CloudSession
from repro.llm import LlmBackend
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.endpoint import Endpoint, EndpointConfig
from repro.serve.loadgen import poisson_trace
from repro.serve.request import (
    OUTCOME_COMPLETED,
    OUTCOME_EXPIRED,
    OUTCOME_SHED,
)
from repro.serve.simulator import EndpointSimulation
from tests.serve.conftest import FixedBackend

PROMPTS = [f"prompt-{i:02d}" for i in range(8)]

scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "rate_qps": st.floats(20.0, 600.0),
    "queue_depth": st.integers(1, 16),
    "deadline_ms": st.none() | st.floats(1.0, 300.0),
    "interrupt_ms": st.none() | st.floats(0.0, 300.0),
})


def run_plane(sim_cls, backend, scenario, **kwargs):
    ep = Endpoint(CloudSession(), EndpointConfig(
        name="prop", instance_type="g4dn.xlarge", initial_replicas=2,
        min_replicas=1, max_replicas=3, max_batch_size=4,
        batch_timeout_ms=2.0, max_queue_depth=scenario["queue_depth"],
        default_deadline_ms=scenario["deadline_ms"],
        provision_delay_ms=20.0))
    trace = poisson_trace(scenario["rate_qps"], 300.0, PROMPTS,
                          seed=scenario["seed"])
    interruptions = ([] if scenario["interrupt_ms"] is None
                     else [(scenario["interrupt_ms"], 0)])
    sim = sim_cls(ep, backend, **kwargs)
    try:
        report = sim.run(trace, interruptions=interruptions)
    finally:
        ep.delete()
    return sim, report


def assert_one_outcome_each(sim, report):
    outcomes = Counter(req.outcome for req in sim._requests)
    assert set(outcomes) <= {OUTCOME_COMPLETED, OUTCOME_SHED,
                             OUTCOME_EXPIRED}
    assert outcomes[OUTCOME_COMPLETED] == report.completed
    assert outcomes[OUTCOME_SHED] == report.shed
    assert outcomes[OUTCOME_EXPIRED] == report.expired
    assert sum(outcomes.values()) == report.submitted == len(sim._requests)


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios)
def test_oneshot_plane_resolves_each_request_once(scenario):
    sim, report = run_plane(EndpointSimulation, FixedBackend(), scenario)
    assert_one_outcome_each(sim, report)


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios)
def test_continuous_plane_resolves_once_and_drains_kv(scenario):
    backend = LlmBackend(part="T4", seed=scenario["seed"])
    budget = backend.spec.kv_bytes_per_token * 16 * 48   # 48 pages
    sim, report = run_plane(ContinuousBatchingSimulation, backend,
                            scenario, kv_budget_bytes=budget)
    assert_one_outcome_each(sim, report)
    served = {r.replica_id for r in sim.endpoint.replicas if r.invocations}
    assert served <= set(sim._decoders)
    for st in sim._decoders.values():
        assert st.kv.live_seqs == 0 and st.kv.live_pages == 0
        assert st.pool.free_bytes == st.pool.total_bytes
        assert st.pool.leak_report().ok
