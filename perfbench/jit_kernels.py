"""jit-kernels: the Lab 5 kernel archetypes on the ``@cuda.jit`` simulator.

Five kernels -- elementwise saxpy, a 2-D stencil, a shared-memory block
reduction, a tiled matmul and a divergent elementwise kernel -- are
launched in ``ROUNDS`` rounds, each kernel once a round with one
signature on seeded inputs, and every output is checked against numpy.
Then the same rounds run again under
``repro.sanitize.dynamic.RaceDetector``, which must find no race on
them, and one racy kernel runs under it, where it must find one.  Only the JIT interpreter and the device timing model work here.
The reduction and the matmul synchronise their blocks, which the
simulator runs on one OS thread per simulated thread.

Operations are kernel launches; ``ops_per_s`` counts launches per host
second with the detector off, and ``work_per_s`` simulated threads per
host second with the detector on.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np
from repro.jit import cuda

from harness import Rep, Workload, timed

#: rounds per repetition; a round launches every kernel once
ROUNDS = 3
N = 16_384                 # elementwise kernels
GRID2D = 64                # stencil is GRID2D x GRID2D
# the reduction and the matmul run one OS thread per simulated thread,
# whose start-up cost drifts with the host; kept small so that drift
# does not swamp the rest of a round
TPB = 64                   # reduction block
REDUCE_BLOCKS = 2
TILE = 4                   # matmul tile; matrices are MAT x MAT
MAT = 8


@cuda.jit(flops_per_thread=2.0, bytes_per_thread=12.0)
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]


@cuda.jit(flops_per_thread=5.0, bytes_per_thread=24.0)
def stencil(u, out):
    i, j = cuda.grid(2)
    if 0 < i < u.shape[0] - 1 and 0 < j < u.shape[1] - 1:
        out[i, j] = 0.25 * (u[i - 1, j] + u[i + 1, j]
                            + u[i, j - 1] + u[i, j + 1])


@cuda.jit
def block_sum(x, partial):
    buf = cuda.shared.array(TPB, dtype=np.float32)
    tid = cuda.threadIdx.x
    i = cuda.grid(1)
    buf[tid] = x[i] if i < x.size else 0.0
    cuda.syncthreads()
    step = TPB // 2
    while step > 0:
        if tid < step:
            buf[tid] += buf[tid + step]
        cuda.syncthreads()
        step //= 2
    if tid == 0:
        partial[cuda.blockIdx.x] = buf[0]


@cuda.jit(flops_per_thread=2.0 * MAT, bytes_per_thread=8.0)
def matmul(a, b, c):
    sa = cuda.shared.array((TILE, TILE), dtype=np.float32)
    sb = cuda.shared.array((TILE, TILE), dtype=np.float32)
    tx = cuda.threadIdx.x
    ty = cuda.threadIdx.y
    row = cuda.blockIdx.y * TILE + ty
    col = cuda.blockIdx.x * TILE + tx
    acc = 0.0
    for t in range(a.shape[1] // TILE):
        sa[ty, tx] = a[row, t * TILE + tx]
        sb[ty, tx] = b[t * TILE + ty, col]
        cuda.syncthreads()
        for k in range(TILE):
            acc += sa[ty, k] * sb[k, tx]
        cuda.syncthreads()
    c[row, col] = acc


@cuda.jit
def divergent(x, out):
    i = cuda.grid(1)
    if i < x.size:
        if i % 2 == 0:
            out[i] = x[i] * 2.0
        else:
            out[i] = -x[i]


@cuda.jit
def racy_sum(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[0] += x[i]       # unsynchronised read-modify-write


class _Case:
    """One kernel with its launch shape, device arguments and expected
    output."""

    def __init__(self, archetype, kernel, grid, block, args, out,
                 expected, rtol):
        self.archetype = archetype
        self.kernel = kernel
        self.grid = grid
        self.block = block
        self.args = args
        self.out = out
        self.expected = expected
        self.rtol = rtol
        self.threads = (int(np.prod(grid)) * int(np.prod(block)))

    def launch(self) -> np.ndarray:
        self.kernel[self.grid, self.block](*self.args)
        return self.out.get()


def _cases(seed: int) -> list[_Case]:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N).astype(np.float32)
    y = rng.standard_normal(N).astype(np.float32)
    u = rng.standard_normal((GRID2D, GRID2D)).astype(np.float32)
    r = rng.standard_normal(TPB * REDUCE_BLOCKS).astype(np.float32)
    ma = rng.standard_normal((MAT, MAT)).astype(np.float32)
    mb = rng.standard_normal((MAT, MAT)).astype(np.float32)

    lap = np.zeros_like(u)
    lap[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                              + u[1:-1, :-2] + u[1:-1, 2:])
    sign = np.where(np.arange(N) % 2 == 0, 2.0, -1.0).astype(np.float32)

    dev = cuda.to_device
    out1, out2, out3, out4, out5 = (
        cuda.device_array(N), cuda.device_array((GRID2D, GRID2D)),
        cuda.device_array(REDUCE_BLOCKS), cuda.device_array((MAT, MAT)),
        cuda.device_array(N))
    blocks = (N + 255) // 256
    return [
        _Case("elementwise", saxpy, blocks, 256,
              (np.float32(2.5), dev(x), dev(y), out1), out1,
              np.float32(2.5) * x + y, 1e-6),
        _Case("stencil", stencil, (GRID2D // 16, GRID2D // 16), (16, 16),
              (dev(u), out2), out2, lap, 1e-5),
        _Case("reduction", block_sum, REDUCE_BLOCKS, TPB,
              (dev(r), out3), out3,
              r.reshape(REDUCE_BLOCKS, TPB).sum(axis=1, dtype=np.float64),
              1e-4),
        _Case("matmul", matmul, (MAT // TILE, MAT // TILE), (TILE, TILE),
              (dev(ma), dev(mb), out4), out4,
              ma.astype(np.float64) @ mb.astype(np.float64), 1e-4),
        _Case("divergent", divergent, blocks, 256, (dev(x), out5), out5,
              x * sign, 1e-6),
    ]


class JitKernels(Workload):
    name = "jit-kernels"

    def setup(self, seed: int, small: bool = False):
        from repro.gpu import make_system

        make_system(1, "T4")
        racy_in = cuda.to_device(np.ones(64, dtype=np.float32))
        racy_out = cuda.device_array(1)
        return _cases(seed), (racy_in, racy_out), 1 if small else ROUNDS

    def run(self, state, rec) -> Rep:
        from repro.gpu import default_system
        from repro.sanitize.dynamic import RaceDetector

        cases, racy_args, rounds = state
        digest = hashlib.sha256()
        errors: list[str] = []
        failed = 0
        # [host seconds, nominal seconds] with the detector off and on
        plain, checked = [0.0, 0.0], [0.0, 0.0]
        counters = {f"jit.{c.archetype}_threads": c.threads * rounds
                    for c in cases}

        def launch_round(detectors) -> list:
            """One launch of every kernel; returns their outputs."""
            outputs = []
            for case, detector in zip(cases, detectors):
                layer = (f"jit.{case.archetype}" if detector is None
                         else "sanitize.dynamic.checked_launch")
                with contextlib.ExitStack() as stack:
                    if detector is not None:
                        stack.enter_context(detector.attach())
                    if rec is not None:
                        stack.enter_context(rec.span(layer))
                    outputs.append(case.launch())
            return outputs

        def run_rounds(detectors, total) -> None:
            # the host speed is read around every round: a round is
            # short enough that the speed barely drifts within it
            nonlocal failed
            for _ in range(rounds):
                outputs, seconds, nominal_s = timed(
                    lambda: launch_round(detectors))
                total[0] += seconds
                total[1] += nominal_s
                for case, got in zip(cases, outputs):
                    digest.update(got.tobytes())
                    if not np.allclose(got, case.expected, rtol=case.rtol,
                                       atol=1e-4):
                        failed += 1
                        errors.append(f"{case.archetype}: output differs "
                                      "from numpy")

        run_rounds([None] * len(cases), plain)
        detectors = [RaceDetector() for _ in cases]
        run_rounds(detectors, checked)
        races = 0
        for case, detector in zip(cases, detectors):
            races += len(detector.races)
            if detector.races:
                errors.append(f"{case.archetype}: race reported on a "
                              f"race-free kernel: "
                              f"{detector.races[0].message}")
        detector = RaceDetector()
        with detector.attach():
            racy_sum[2, 32](*racy_args)
        races += len(detector.races)
        rules = sorted({f.rule for f in detector.races})
        if not rules:
            errors.append("racy kernel: no race reported")
        counters["sanitize.dynamic.races"] = races
        digest.update(repr(rules).encode())
        digest.update(str(default_system().clock.now_ns).encode())
        launches = rounds * len(cases)
        return Rep(seconds=plain[0] + checked[0],
                   nominal_s=plain[1] + checked[1], ops=2 * launches + 1,
                   failed=failed, ops_per_s=launches / plain[1],
                   work_per_s=rounds * sum(c.threads for c in cases)
                   / checked[1], digest=digest.hexdigest()[:16],
                   errors=errors, counters=counters)

    def teardown(self, state) -> None:
        from repro.gpu import reset_default_system

        reset_default_system()
