"""llm-continuous: iteration-level batching of a simulated LLM.

About 8k requests arrive as a seeded Poisson stream over 10 s of
simulated time at 8 g4dn.xlarge replicas running ``LlmBackend`` on a
T4.  Every request carries its own query, so prompt and generation
lengths are sampled per request.  The KV budget is tight enough that a
small share of decode iterations preempt a sequence.  No observer is
attached.  The per-token decode loop dominates: the KV cache, the
continuous scheduler, device memory, telemetry histograms and the
backend's calibrated timings.

Operations are simulated requests; work is simulated output tokens.
"""

from __future__ import annotations

from harness import Rep, Workload, timed
from serve_oneshot import serve_rep

RATE_QPS = 800.0
DURATION_MS = 10_000.0
#: KV pages per replica: at 128 about one decode iteration in 10^4
#: preempts, at 64 several in 100; this sits between
KV_PAGES = 112
KV_PAGE_TOKENS = 16


class LlmContinuous(Workload):
    name = "llm-continuous"

    def setup(self, seed: int, small: bool = False):
        from repro.cloud.session import CloudSession
        from repro.llm import LlmBackend
        from repro.serve.continuous import ContinuousBatchingSimulation
        from repro.serve.endpoint import Endpoint, EndpointConfig
        from repro.serve.loadgen import poisson_trace

        duration = DURATION_MS * (0.02 if small else 1.0)
        backend = LlmBackend(part="T4", seed=seed)
        n = int(RATE_QPS * duration / 1e3 * 1.1)
        queries = [f"request-{seed}-{i}" for i in range(n)]
        trace = poisson_trace(RATE_QPS, duration, queries, seed=seed)
        endpoint = Endpoint(CloudSession(), EndpointConfig(
            name="llm-bench", instance_type="g4dn.xlarge",
            initial_replicas=8, min_replicas=8, max_replicas=8,
            max_batch_size=8, max_queue_depth=4096))
        sim = ContinuousBatchingSimulation(
            endpoint, backend,
            kv_budget_bytes=(KV_PAGES * KV_PAGE_TOKENS
                             * backend.spec.kv_bytes_per_token),
            kv_page_tokens=KV_PAGE_TOKENS)
        # sampled on a second backend, so the measured one starts cold
        sampler = LlmBackend(part="T4", seed=seed)
        prompts = sum(sampler.sample_lengths(a.query)[0]
                      for a in trace.arrivals)
        return sim, trace, prompts

    def run(self, state, rec) -> Rep:
        sim, trace, prompts = state
        report, seconds, nominal_s = timed(lambda: sim.run(trace))
        rep = serve_rep(report, seconds, nominal_s, report.total_tokens, sim)
        rep.counters["llm.preemptions"] = report.preemptions
        rep.counters["llm.prefill_recompute_ratio"] = (
            report.prefill_tokens / prompts)
        return rep

    def teardown(self, state) -> None:
        sim = state[0]
        sim.endpoint.delete()
