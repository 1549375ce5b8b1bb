"""Iteration-level continuous batching (the vLLM/Orca request plane).

The dynamic-batching simulator treats a batch as one opaque service
call: the replica is busy until the *longest* member finishes, and
nobody new boards until then.  For autoregressive decoding that is
ruinous — a 4-token reply waits for a 128-token neighbour, and the
replica decodes ever-narrower batches as members finish.

:class:`ContinuousBatchingSimulation` reschedules **between decode
iterations** instead:

* each replica runs an iteration loop (a new ``iter`` event kind):
  finish sequences that produced their last token, admit queued
  requests into freed slots, then run either one prefill pass (for the
  newly admitted) or one decode step (for everyone else);
* admission is **KV-aware and deadline-aware** — a sequence boards only
  when the paged allocator can hold its prompt, and a request whose
  deadline cannot survive even its own prefill is expired at admission
  instead of burning GPU time;
* each replica owns a :class:`~repro.gpu.memory.MemoryPool` sized from
  its instance type, with the weights resident and a
  :class:`~repro.llm.kvcache.PagedKvCache` on the remainder.  When
  decode cannot grow every sequence by one page, the **youngest**
  sequence is preempted — its pages freed, its request requeued for
  recompute-style resumption — so the oldest work always completes;
* before a single event fires, the run pre-flights the worst-case KV
  token budget (``max_batch_size × max_seq_tokens``) through
  :func:`repro.memcheck.llm_token_budget_preflight` and refuses
  over-committed configs with a ``MEM-PEAK-OOM`` finding — unless
  ``kv_budget_bytes`` caps the cache explicitly, in which case the
  findings are kept on ``preflight_findings`` and preemption absorbs
  the pressure.

Everything else — routing, admission control, retries, autoscaling
ticks, spot interruptions, billing — is inherited unchanged from
:class:`~repro.serve.simulator.EndpointSimulation`, and so is the
request lifecycle: every request resolves through the base class's
``_expire``/``_shed``/``_complete`` and every iteration is recorded
through ``_record_batch``.  This class overrides only ``run``,
``_dispatch``, ``_pump``, ``_on_interrupt`` and ``_build_report``; the
report gains tokens/sec, TTFT and inter-token-latency percentiles
(exemplar-linked), preemption and KV-occupancy stats.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from repro.cloud.pricing import get_instance_type
from repro.errors import ReproError
from repro.gpu.memory import Allocation, MemoryPool
from repro.memcheck.estimate import (
    llm_token_budget_preflight,
    usable_gpu_bytes,
)
from repro.serve.endpoint import Replica, ReplicaState
from repro.serve.loadgen import ArrivalTrace
from repro.serve.report import SloReport
from repro.serve.request import Request
from repro.serve.simulator import EndpointSimulation, latency_histogram
from repro.telemetry import api as telemetry

DEFAULT_PAGE_TOKENS = 16


@dataclass
class _Seq:
    """One admitted sequence: a request plus its decoding progress."""

    req: Request
    prompt_tokens: int
    gen_tokens: int
    produced: int = 0
    prefilled: bool = False
    finished: bool = False
    finish_batch: int = 0         # iteration id that produced the last token
    iteration_size: int = 0       # batch width of that iteration
    label: str = dc_field(init=False)   # exemplar label, formatted once

    def __post_init__(self) -> None:
        self.label = f"{self.req.request_id:012d}"


@dataclass
class _ReplicaDecoder:
    """Per-replica device state: the pool, the weights, the KV cache."""

    pool: MemoryPool
    weights: Allocation
    kv: object                    # PagedKvCache (lazy-imported)
    capacity_pages: int
    running: list[_Seq] = dc_field(default_factory=list)
    scheduled: bool = False
    #: the last iteration's ``_record_batch`` arguments, recorded only
    #: after its completions have resolved (so the sampler's batch
    #: refcounts see them)
    pending_record: dict | None = None


class ContinuousBatchingSimulation(EndpointSimulation):
    """Drive an endpoint with iteration-level scheduling of an
    :class:`~repro.llm.backend.LlmBackend`."""

    def __init__(self, endpoint, backend, *,
                 kv_budget_bytes: int | None = None,
                 kv_page_tokens: int = DEFAULT_PAGE_TOKENS,
                 **kwargs) -> None:
        for attr in ("spec", "prefill_ms", "decode_ms", "sample_lengths"):
            if not hasattr(backend, attr):
                raise ReproError(
                    "continuous batching needs an iteration-level backend "
                    f"(LlmBackend-like); {backend!r} has no {attr!r}")
        if kv_page_tokens < 1:
            raise ReproError("kv_page_tokens must be >= 1")
        super().__init__(endpoint, backend, **kwargs)
        self.kv_budget_bytes = kv_budget_bytes
        self.kv_page_tokens = kv_page_tokens
        self.preflight = None
        self.preflight_findings: tuple = ()

    # -- the run -----------------------------------------------------------

    def run(self, trace: ArrivalTrace,
            interruptions: Iterable[tuple[float, int]] = ()) -> SloReport:
        spec = self.backend.spec
        cfg = self.endpoint.config
        budget_tokens = cfg.max_batch_size * self.backend.max_seq_tokens
        self.preflight, findings = llm_token_budget_preflight(
            spec.weights_bytes, spec.kv_bytes_per_token, budget_tokens,
            cfg.instance_type, page_tokens=self.kv_page_tokens)
        self.preflight_findings = tuple(findings)
        if findings and self.kv_budget_bytes is None:
            raise ReproError(
                "KV token-budget pre-flight failed "
                f"(MEM-PEAK-OOM): {self.preflight.render()}")
        self._decoders: dict[int, _ReplicaDecoder] = {}
        self.preemptions = 0
        self.kv_shed = 0
        self.total_generated = 0
        self.total_prefill = 0
        self.ttft_hist = latency_histogram("serve.ttft_ms")
        self.itl_hist = latency_histogram("serve.itl_ms")
        self.tps_hist = latency_histogram("serve.tokens_per_sec")
        return super().run(trace, interruptions)

    # -- per-replica device state -----------------------------------------

    def _decoder(self, replica: Replica) -> _ReplicaDecoder:
        st = self._decoders.get(replica.replica_id)
        if st is not None:
            return st
        # lazy: repro.llm.backend imports repro.serve.backend, so this
        # module must not import repro.llm at import time
        from repro.llm.kvcache import PagedKvCache
        spec = self.backend.spec
        page_bytes = spec.kv_bytes_per_token * self.kv_page_tokens
        if self.kv_budget_bytes is not None:
            capacity = spec.weights_bytes + int(self.kv_budget_bytes)
        else:
            itype = get_instance_type(self.endpoint.config.instance_type)
            capacity = usable_gpu_bytes(itype)
        pool = MemoryPool(capacity, reserve_fraction=0.0,
                          stats_page_bytes=page_bytes)
        weights = pool.allocate(spec.weights_bytes, tag="weights")
        kv = PagedKvCache(pool, spec.kv_bytes_per_token,
                          page_tokens=self.kv_page_tokens)
        st = _ReplicaDecoder(pool=pool, weights=weights, kv=kv,
                             capacity_pages=kv.free_pages)
        self._decoders[replica.replica_id] = st
        return st

    # -- event plumbing ----------------------------------------------------

    def _dispatch(self, kind: str, data) -> None:
        if kind == "iter":
            self._on_iter(*data)
        else:
            super()._dispatch(kind, data)

    def _pump(self, replica: Replica) -> None:
        """Kick the replica's iteration loop (replaces batch windows —
        there is no timer: the next iteration is always the next
        scheduling opportunity)."""
        if replica.state is ReplicaState.TERMINATED:
            return
        st = self._decoder(replica)
        if st.scheduled:
            return
        if replica.queue or st.running:
            st.scheduled = True
            self._push(self.now_ms, "iter",
                       (replica, replica.service_epoch))

    # -- the iteration loop ------------------------------------------------

    def _on_iter(self, replica: Replica, epoch: int) -> None:
        st = self._decoders.get(replica.replica_id)
        if st is None or epoch != replica.service_epoch:
            return
        if replica.state is ReplicaState.TERMINATED:
            st.scheduled = False
            return
        if replica.in_flight is not None:
            # close the previous iteration's busy interval
            replica.recent_busy.append((replica.busy_from_ms,
                                        replica.busy_until_ms))
            replica.in_flight = None
        self._finish_completed(replica, st)
        if st.pending_record is not None:
            self._record_batch(replica, **st.pending_record)
            st.pending_record = None
        self._admit(replica, st)
        if not st.running:
            st.scheduled = False
            if replica.state is ReplicaState.DRAINING \
                    and not replica.queue:
                self._finish_drain(replica)
            return
        new = [s for s in st.running if not s.prefilled]
        if new:
            end = self._prefill_iteration(replica, st, new)
        else:
            end = self._decode_iteration(replica, st)
        if not st.running:
            # the whole batch was preempted/shed away
            st.scheduled = False
            if replica.queue:
                self._pump(replica)
            return
        replica.busy_from_ms = self.now_ms
        replica.busy_until_ms = end
        replica.invocations += 1
        # mirror the running set so routing (least-outstanding), drain
        # and spot-interrupt displacement see iteration-plane work
        replica.in_flight = [(s.req, end) for s in st.running]
        self._push(end, "iter", (replica, replica.service_epoch))

    def _admit(self, replica: Replica, st: _ReplicaDecoder) -> None:
        """Board queued requests into free slots, FIFO, KV- and
        deadline-aware.  Head-of-line blocking on KV pressure is
        deliberate: skipping ahead would starve long prompts forever."""
        cfg = self.endpoint.config
        backend = self.backend
        while replica.queue and len(st.running) < cfg.max_batch_size:
            req = replica.queue[0]
            if req.expired(self.now_ms):
                replica.queue.popleft()
                self._expire(req)
                continue
            prompt, gen = backend.sample_lengths(req.query)
            pages_lifetime = -(-(prompt + gen) // self.kv_page_tokens)
            if pages_lifetime > st.capacity_pages:
                # can never fit, even on an empty cache: fail fast
                replica.queue.popleft()
                self.kv_shed += 1
                self._shed(req)
                continue
            if req.deadline_ms is not None and \
                    self.now_ms + backend.prefill_ms([prompt]) \
                    > req.deadline_ms:
                # deadline-aware admission: it cannot even prefill in
                # time, so expire it now instead of burning GPU on it
                replica.queue.popleft()
                self._expire(req)
                continue
            if not st.kv.allocate(req.request_id, prompt):
                break               # wait for pages to free up
            replica.queue.popleft()
            st.running.append(_Seq(req=req, prompt_tokens=prompt,
                                   gen_tokens=gen))

    def _prefill_iteration(self, replica: Replica, st: _ReplicaDecoder,
                           new: list[_Seq]) -> float:
        """One prefill pass over the newly admitted prompts; each yields
        its first token (TTFT) at the end of the pass."""
        prompts = [s.prompt_tokens for s in new]
        dt = self.backend.prefill_ms(prompts)
        end = self.now_ms + dt
        self.batches += 1
        self.batch_queries += len(new)
        batch_id = self.batches
        self.backend.prefill_tokens += sum(prompts)
        self.total_prefill += sum(prompts)
        for s in new:
            s.prefilled = True
            s.produced = 1
            self.backend.generated_tokens += 1
            req = s.req
            if req.first_token_ms is None:
                req.first_token_ms = end
                self.ttft_hist.observe(end - req.arrival_ms,
                                       exemplar=s.label)
            if s.produced >= s.gen_tokens:
                s.finished = True
                s.finish_batch = batch_id
                s.iteration_size = len(new)
        st.pending_record = dict(
            batch_id=batch_id, size=len(new), start_ms=self.now_ms,
            end_ms=end, label="serve.prefill_iter", phase="prefill",
            tokens=sum(prompts),
            calibration_key=self.backend.prefill_key(prompts))
        return end

    def _decode_iteration(self, replica: Replica,
                          st: _ReplicaDecoder) -> float:
        """One decode step for every running sequence, preempting the
        youngest first when the KV pool cannot grow everyone.  The KV
        grant, the token count and the ITL observation are one bulk
        call each for the whole batch."""
        kv = st.kv
        ids = [s.req.request_id for s in st.running]
        while ids and kv.pages_for_step(ids) > kv.free_pages:
            ids.pop()
            victim = st.running.pop()      # youngest boards last
            kv.release(victim.req.request_id)
            if st.running:
                # recompute-style preemption: pages freed, request
                # requeued at the head; prefill re-runs on re-admission
                replica.queue.appendleft(victim.req)
                self.preemptions += 1
                telemetry.count("serve.preempted")
            else:
                # a lone sequence the pool cannot hold mid-decode
                self.kv_shed += 1
                self._shed(victim.req)
        running = st.running
        if not running:
            return self.now_ms
        ctxs = [s.prompt_tokens + s.produced for s in running]
        key = self.backend.decode_key(ctxs)
        dt = self.backend.decode_ms(ctxs)
        end = self.now_ms + dt
        n = len(running)
        self.batches += 1
        self.batch_queries += n
        batch_id = self.batches
        kv.step(ids)
        self.backend.generated_tokens += n
        self.itl_hist.observe_many(dt, [s.label for s in running])
        for s in running:
            s.produced += 1
            if s.produced >= s.gen_tokens:
                s.finished = True
                s.finish_batch = batch_id
                s.iteration_size = n
        st.pending_record = dict(
            batch_id=batch_id, size=n, start_ms=self.now_ms,
            end_ms=end, label="serve.decode_iter", phase="decode",
            tokens=n, calibration_key=key)
        return end

    def _finish_completed(self, replica: Replica,
                          st: _ReplicaDecoder) -> None:
        """Resolve sequences whose last token landed at ``now`` — the
        continuous-batching win: they leave *now*, not when the whole
        batch drains."""
        done = [s for s in st.running if s.finished]
        if not done:
            return
        st.running = [s for s in st.running if not s.finished]
        for s in done:
            st.kv.release(s.req.request_id)
            req = s.req
            self.total_generated += s.gen_tokens
            if req.first_token_ms is not None and s.produced >= 2:
                window_s = (self.now_ms - req.first_token_ms) / 1e3
                if window_s > 0:
                    self.tps_hist.observe((s.produced - 1) / window_s,
                                          exemplar=s.label)
            self._complete(replica, req, self.now_ms, s.finish_batch,
                           s.iteration_size, tokens=s.produced)

    # -- fleet lifecycle ---------------------------------------------------

    def _on_interrupt(self, replica_id: int) -> None:
        st = self._decoders.get(replica_id)
        if st is not None:
            # free the running sequences' pages; the requests themselves
            # are displaced through the in_flight mirror by the base
            # handler (which also bumps service_epoch, staling the pending
            # ``iter``) and recompute from scratch on a survivor.  The
            # decoder stays, so teardown still audits its pool.
            for s in st.running:
                st.kv.release(s.req.request_id)
            st.running = []
        super()._on_interrupt(replica_id)

    # -- the report --------------------------------------------------------

    def _teardown_decoders(self) -> None:
        """Release weights and assert the KV ledger drained to zero —
        the conservation check that no completed/preempted/displaced
        sequence leaked pages.  The page tables are recounted once
        against the cache's incremental totals first, so counter drift
        cannot hide a leak."""
        for rid, st in sorted(self._decoders.items()):
            st.kv.audit()
            if st.kv.live_seqs or st.kv.live_pages:
                raise ReproError(
                    f"KV ledger leak on replica {rid}: "
                    f"{st.kv.live_seqs} sequences / "
                    f"{st.kv.live_pages} pages still held at teardown")
            st.pool.free(st.weights)
            report = st.pool.leak_report()
            if not report.ok:
                raise ReproError(
                    f"device pool leak on replica {rid}:\n"
                    f"{report.render()}")

    def _build_report(self) -> SloReport:
        kv_peak = 0
        kv_util = 0.0
        for st in self._decoders.values():
            if st.kv.peak_pages > kv_peak:
                kv_peak = st.kv.peak_pages
                kv_util = st.kv.peak_page_utilization
        self._teardown_decoders()
        base = super()._build_report()
        effective_ms = max(base.duration_ms, self.last_finish_ms)
        return dataclasses.replace(
            base,
            total_tokens=self.total_generated,
            prefill_tokens=self.total_prefill,
            tokens_per_sec=(self.total_generated / (effective_ms / 1e3)
                            if effective_ms > 0 else 0.0),
            ttft_mean_ms=self.ttft_hist.mean,
            ttft_p50_ms=self.ttft_hist.percentile(50),
            ttft_p95_ms=self.ttft_hist.percentile(95),
            ttft_p99_ms=self.ttft_hist.percentile(99),
            itl_p50_ms=self.itl_hist.percentile(50),
            itl_p99_ms=self.itl_hist.percentile(99),
            tokens_per_sec_p50=self.tps_hist.percentile(50),
            preemptions=self.preemptions,
            kv_peak_pages=kv_peak,
            kv_page_utilization=kv_util,
            ttft_exemplars=tuple(self.ttft_hist.top_exemplars()),
        )
