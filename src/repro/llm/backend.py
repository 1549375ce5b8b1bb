"""The simulated autoregressive decoder as a serving backend.

:class:`LlmBackend` turns :class:`~repro.llm.model.TransformerSpec`'s
FLOP/byte counts into *measured* service times: each prefill pass and
each decode iteration launches two kernels (the dense GEMMs and the
memory-bound attention/KV sweep) on the backend's private simulated GPU,
and the roofline timing model answers with the duration.  Measurements
are calibrated per bucketed shape — ``(phase, batch, tokens-per-seq
bucket)`` — and replayed, keeping long traces fast while staying
deterministic; under a tracer each calibration runs inside an
``llm.calibrate[...]`` span whose context replays can link back to
(the same "measured-as" contract as
:class:`~repro.serve.backend._MemoizingBackend`).

Request lengths are **sampled, not parsed**: each query string hashes
(with the backend seed) to a prompt length and a generation length from
clamped lognormals — the heavy-tailed mixed-length traffic that makes
one-shot batching pay for its stragglers.

Two serving modes share the cost model:

* :meth:`serve_batch` — the one-shot baseline: prefill the whole batch,
  then decode until *every* member finishes.  Satisfies
  :class:`~repro.serve.backend.ModelBackend`, so it drops into the
  existing dynamic-batching simulator unchanged.
* :meth:`prefill_ms` / :meth:`decode_ms` — the iteration-level API the
  continuous-batching plane (:mod:`repro.serve.continuous`) drives
  directly, admitting and evicting sequences between iterations.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence

from repro.errors import ReproError
from repro.gpu.kernelmodel import KernelCost
from repro.gpu.system import GpuSystem
from repro.llm.model import TransformerSpec
from repro.serve.backend import BatchResult
from repro.telemetry import api as telemetry
from repro.telemetry.context import SpanContext

#: dense GEMMs hit near-peak tensor throughput
GEMM_EFF = 0.85
#: the scattered KV-cache sweep does not stream perfectly
ATTN_EFF = 0.4
#: calibration buckets: per-sequence token counts round up to this
TOKEN_BUCKET = 64


def _bucket(tokens: float) -> int:
    """Round a per-sequence token count up to the calibration grid."""
    return max(TOKEN_BUCKET,
               -(-int(tokens) // TOKEN_BUCKET) * TOKEN_BUCKET)


class LlmBackend:
    """Autoregressive decoding measured on a private simulated GPU."""

    def __init__(self, spec: TransformerSpec | None = None,
                 part: str = "T4", seed: int = 0,
                 max_prompt_tokens: int = 512,
                 max_new_tokens: int = 128) -> None:
        if max_prompt_tokens < 1 or max_new_tokens < 1:
            raise ReproError("token caps must be >= 1")
        self.spec = spec if spec is not None else TransformerSpec()
        self.system = GpuSystem(num_devices=1, part=part)
        self.seed = seed
        self.max_prompt_tokens = max_prompt_tokens
        self.max_new_tokens = max_new_tokens
        self.name = "llm"
        # counters the report's tokens/sec derives from
        self.prefill_tokens = 0
        self.generated_tokens = 0
        self._lengths: dict[str, tuple[int, int]] = {}
        self._timings: dict[tuple, float] = {}
        self._calibrations: dict[object, SpanContext] = {}
        self._serve_cache: dict[tuple, BatchResult] = {}

    @property
    def max_seq_tokens(self) -> int:
        """Most tokens one sequence can ever cache (prompt + output) —
        what the memcheck token-budget pre-flight multiplies out."""
        return self.max_prompt_tokens + self.max_new_tokens

    # -- seeded length sampling -------------------------------------------

    def sample_lengths(self, query: str) -> tuple[int, int]:
        """(prompt_tokens, gen_tokens) for ``query`` — drawn once from
        clamped lognormals seeded by (backend seed, query), so the same
        query always costs the same."""
        cached = self._lengths.get(query)
        if cached is not None:
            return cached
        rng = random.Random(zlib.crc32(f"{self.seed}:{query}".encode()))
        prompt = int(min(self.max_prompt_tokens,
                         max(8, rng.lognormvariate(4.2, 0.8))))
        gen = int(min(self.max_new_tokens,
                      max(4, rng.lognormvariate(3.5, 0.9))))
        self._lengths[query] = (prompt, gen)
        return prompt, gen

    # -- calibrated phase timings -----------------------------------------

    def _measure(self, key: tuple, kernels: list[KernelCost]) -> float:
        """Run ``kernels`` once under an ``llm.calibrate`` span; cache
        the measured duration and the span context under ``key`` (the
        phase timings look the cache up before building ``kernels``)."""
        dev = self.system.devices[0]
        label = "-".join(str(k) for k in key)
        with telemetry.span(f"llm.calibrate[{label}]", kind="stage",
                            attributes={"phase": key[0],
                                        "batch_size": key[1],
                                        "tokens": key[2]}) as cal:
            start_ns = self.system.synchronize()
            for cost in kernels:
                # grid sized to the kernel's own working set (a decode
                # GEMM parallelizes over the weight matrix, not over the
                # one token per sequence), so occupancy reflects reality
                n_elements = max(256, int(cost.bytes_total
                                          // self.spec.dtype_bytes))
                dev.launch_auto(cost, n_elements=n_elements)
            end_ns = dev.synchronize()
        duration_ms = max((end_ns - start_ns) / 1e6, 1e-6)
        if cal is not None:
            self._calibrations[key] = SpanContext(
                trace_id=cal.trace_id, span_id=cal.span_id)
        self._timings[key] = duration_ms
        return duration_ms

    def prefill_key(self, prompt_lens: Sequence[int]) -> tuple:
        """The calibration-cache key :meth:`prefill_ms` files under —
        what an iteration span's ``calibrated_as`` link resolves."""
        n = len(prompt_lens)
        return ("prefill", n, _bucket(sum(prompt_lens) / n))

    def decode_key(self, context_lens: Sequence[int]) -> tuple:
        """The calibration-cache key :meth:`decode_ms` files under."""
        n = len(context_lens)
        return ("decode", n, _bucket(sum(context_lens) / n))

    def prefill_ms(self, prompt_lens: Sequence[int]) -> float:
        """Measured duration of one prefill pass over whole prompts."""
        if not prompt_lens:
            raise ReproError("prefill needs at least one sequence")
        key = self.prefill_key(prompt_lens)
        cached = self._timings.get(key)
        if cached is not None:
            return cached
        _, n, per_seq = key
        lens = (per_seq,) * n
        spec = self.spec
        read, written = spec.prefill_bytes(lens)
        total = n * per_seq
        gemm = KernelCost(
            flops=total * spec.linear_flops_per_token,
            bytes_read=read, bytes_written=written * 0.2,
            name=f"prefill.gemm b{n}t{per_seq}",
            compute_efficiency=GEMM_EFF)
        attn = KernelCost(
            flops=spec.prefill_flops(lens) - gemm.flops,
            bytes_read=written * 0.3, bytes_written=written * 0.8,
            name=f"prefill.attn b{n}t{per_seq}",
            compute_efficiency=ATTN_EFF)
        return self._measure(key, [gemm, attn])

    def decode_ms(self, context_lens: Sequence[int]) -> float:
        """Measured duration of one decode iteration (one token per
        sequence, attention over ``context_lens`` cached tokens)."""
        if not context_lens:
            raise ReproError("decode needs at least one sequence")
        key = self.decode_key(context_lens)
        cached = self._timings.get(key)
        if cached is not None:
            return cached
        _, n, per_seq = key
        spec = self.spec
        total_ctx = n * per_seq
        read, written = spec.decode_step_bytes(n, total_ctx)
        kv_read = float(spec.kv_bytes_per_token * total_ctx)
        gemm = KernelCost(
            flops=n * spec.linear_flops_per_token,
            bytes_read=read - kv_read, bytes_written=written * 0.5,
            name=f"decode.gemm b{n}",
            compute_efficiency=GEMM_EFF)
        attn = KernelCost(
            flops=spec.decode_step_flops(n, total_ctx) - gemm.flops,
            bytes_read=kv_read, bytes_written=written * 0.5,
            name=f"decode.attn b{n}c{per_seq}",
            compute_efficiency=ATTN_EFF)
        return self._measure(key, [gemm, attn])

    def calibration_context(self, key: object) -> SpanContext | None:
        """Span context of the measurement cached under ``key`` — a
        ``(phase, batch, bucket)`` tuple from the iteration plane, or a
        plain batch size from the one-shot plane."""
        return self._calibrations.get(key)

    # -- the one-shot baseline (ModelBackend) ------------------------------

    def serve_batch(self, queries: Sequence[str]) -> BatchResult:
        """Prefill the batch, then decode until every member finishes.

        The per-query completion offsets are staggered (short requests
        finish mid-batch) but the replica stays busy until the longest
        generation ends — exactly the straggler cost continuous
        batching removes.
        """
        if not queries:
            raise ReproError("cannot serve an empty batch")
        lengths = [self.sample_lengths(q) for q in queries]
        self.prefill_tokens += sum(p for p, _ in lengths)
        self.generated_tokens += sum(g for _, g in lengths)
        cache_key = tuple(lengths)
        cached = self._serve_cache.get(cache_key)
        if cached is not None:
            return cached
        n = len(queries)
        with telemetry.span(f"llm.serve_batch[batch={n}]", kind="stage",
                            attributes={"batch_size": n}) as span:
            clock = self.prefill_ms([p for p, _ in lengths])
            produced = [1] * n          # prefill yields the first token
            finish = [clock if g == 1 else 0.0 for _, g in lengths]
            while True:
                active = [i for i in range(n)
                          if produced[i] < lengths[i][1]]
                if not active:
                    break
                ctxs = [lengths[i][0] + produced[i] for i in active]
                clock += self.decode_ms(ctxs)
                for i in active:
                    produced[i] += 1
                    if produced[i] == lengths[i][1]:
                        finish[i] = clock
        if span is not None:
            self._calibrations[n] = SpanContext(
                trace_id=span.trace_id, span_id=span.span_id)
        result = BatchResult(service_ms=clock, per_query_ms=tuple(finish))
        self._serve_cache[cache_key] = result
        return result
