"""The kernel JIT's dispatcher: launch-time proof, per-signature cache,
and the masked-lockstep numpy lowering (:mod:`repro.jit.lowering`).

Every kernel here is launched twice with fresh arguments -- the
dispatcher lowers a signature at its second launch -- once through the
dispatcher and once on the forced per-thread interpreter, and the two
must agree byte for byte on every output, on the simulated clock, on
``launch_count``, on the performance warnings and on the numpy warnings
the launch prints.
"""

import contextlib
import importlib.util
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import make_system
from repro.jit import cuda
from repro.jit.cuda import CudaKernel
from repro.sanitize import check_launch
from repro.sanitize.dynamic import RaceDetector

SRC = str(Path(__file__).resolve().parents[2] / "src")

TPB = 64
TILE = 4
MAT = 8
SCALE = 3


# -- the five perfbench jit-kernels archetypes --------------------------------

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


# -- the race-free kernels of the other suites, examples and Lab 5 ------------

@cuda.jit
def fill2d(out):
    i, j = cuda.grid(2)
    if i < out.shape[0] and j < out.shape[1]:
        out[i, j] = i * 10 + j


@cuda.jit
def fill3d(out):
    i, j, k = cuda.grid(3)
    sx, sy = cuda.gridsize(2)
    if i < out.shape[0] and j < out.shape[1] and k < out.shape[2]:
        out[i, j, k] = (i * 100 + j * 10 + k + sx * sy
                        + cuda.blockDim.z * cuda.gridDim.y)


@cuda.jit
def strided_inc(out):
    start = cuda.grid(1)
    step = cuda.gridsize(1)
    for i in range(start, out.size, step):
        out[i] += 1.0


@cuda.jit
def record(out):
    i = cuda.blockIdx.x * cuda.blockDim.x + cuda.threadIdx.x
    out[i] = cuda.blockIdx.x


@cuda.jit
def leak_check(out):
    tile = cuda.shared.array(4, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = cuda.blockIdx.x + 1.0
    cuda.syncthreads()
    out[cuda.grid(1)] = tile[tx]


@cuda.jit
def atomic_block_sum(x, out):
    tile = cuda.shared.array(32, np.float32)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    tile[tx] = x[i] if i < x.size else 0.0
    cuda.syncthreads()
    if tx == 0:
        s = 0.0
        for j in range(32):
            s += tile[j]
        cuda.atomic.add(out, 0, s)


@cuda.jit
def kmax(x, out):
    i = cuda.grid(1)
    if i < x.size:
        cuda.atomic.max(out, 0, x[i])


@cuda.jit
def inc(out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] += 1.0


@cuda.jit
def guarded_matmul(a, b, c):
    tile_a = cuda.shared.array((4, 4))
    tile_b = cuda.shared.array((4, 4))
    tx = cuda.threadIdx.x
    ty = cuda.threadIdx.y
    col, row = cuda.grid(2)
    acc = 0.0
    for t in range(a.shape[1] // 4):
        if row < a.shape[0] and col < b.shape[1]:
            tile_a[ty, tx] = a[row, t * 4 + tx]
            tile_b[ty, tx] = b[t * 4 + ty, col]
        cuda.syncthreads()
        for k in range(4):
            acc += tile_a[ty, k] * tile_b[k, tx]
        cuda.syncthreads()
    if row < c.shape[0] and col < c.shape[1]:
        c[row, col] = acc


@cuda.jit
def tiled_sum(v, out):
    tile = cuda.shared.array(16)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    tile[tx] = v[i] if i < v.size else 0.0
    cuda.syncthreads()
    if tx == 0:
        s = 0.0
        for k in range(16):
            s += tile[k]
        out[cuda.blockIdx.x] = s


@cuda.jit
def double(x, out):
    i = cuda.grid(1)
    if i < x.size and i < out.size:
        out[i] = 2.0 * x[i]


@cuda.jit
def gather(idx, x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[idx[i]]


@cuda.jit
def tree_sum(v, partials):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    i = cuda.grid(1)
    tile[tx] = v[i] if i < v.size else 0.0
    cuda.syncthreads()
    stride = 32
    while stride > 0:
        if tx < stride:
            tile[tx] += tile[tx + stride]
        cuda.syncthreads()
        stride //= 2
    if tx == 0:
        partials[cuda.blockIdx.x] = tile[0]


@cuda.jit(flops_per_thread=5.0, bytes_per_thread=24.0)
def blur(img, out):
    i, j = cuda.grid(2)
    if 1 <= i < img.shape[0] - 1 and 1 <= j < img.shape[1] - 1:
        out[i, j] = (img[i, j] + img[i - 1, j] + img[i + 1, j]
                     + img[i, j - 1] + img[i, j + 1]) / 5.0


@cuda.jit
def early_exit(x, out):
    i = cuda.grid(1)
    if i >= x.size:
        return
    v = x[i]
    if v < 0:
        v = -v
    out[i] = v * i + x[i]


@cuda.jit
def mixed_types(x, out):
    i = cuda.grid(1)
    if i < x.size:
        # lanes hold np.float32 or a Python float: lockstep rolls back
        out[i] = (x[i] if i % 3 else 1.5) * 2


@cuda.jit
def nested_exits(x, n, out):
    i = cuda.grid(1)
    if n > SCALE:
        if i >= n:
            return
    elif i >= x.size:
        return
    acc = 0.0
    t = 0
    while t < 3:
        acc += x[i] * t
        t += 1
    out[i] = acc if i % 2 else -acc


@cuda.jit
def int_result(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = i * 3 - 7 if x[i] > 0 else i // 2


@cuda.jit
def scaled_index(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[i] = x[i] * i


@cuda.jit
def scaled_const(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[i] = x[i] * SCALE


@cuda.jit
def lcg_hash(out):
    i = cuda.grid(1)
    if i < out.size:
        # Python ints: past int64 from i = 2 on, but never wrapped
        out[i] = (i * 6364136223846793005 + 1442695040888963407) % 1000


@cuda.jit
def small_hash(out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = (i * 2654435761 + 12345) % 1000


@cuda.jit
def square(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[i] = x[i] * x[i]     # int32 scalars wrap, with a warning


@cuda.jit
def big_to_float(out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = i * 9007199254740993        # past 2**53


@cuda.jit
def reciprocal(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[i] = 1.0 / x[i]


# -- kernels that must never take the lowered path ------------------------------

@cuda.jit
def racy_sum(x, out):
    i = cuda.grid(1)
    if i < x.size:
        out[0] += x[i]       # unsynchronised read-modify-write


@cuda.jit
def neighbour_update(u):
    i = cuda.grid(1)
    if 0 < i < u.size:
        u[i] = u[i - 1] + u[i]


@cuda.jit
def atomic_count(out):
    cuda.atomic.add(out, 0, 1.0)


@cuda.jit
def local_temp(x, out):
    i = cuda.grid(1)
    tmp = cuda.local.array(2, np.float32)
    if i < x.size:
        tmp[0] = x[i]
        out[i] = tmp[0]


@cuda.jit
def unguarded(out):
    i = cuda.grid(1)
    out[i] = 1.0


def _dev(a):
    return cuda.to_device(np.asarray(a))


def _rng(seed=7):
    return np.random.default_rng(seed)


def _f32(*shape, seed=7):
    return _rng(seed).standard_normal(shape).astype(np.float32)


def _saxpy_args():
    n = 1000
    out = cuda.device_array(n)
    return (2.0, _dev(np.arange(n, dtype=np.float32)),
            _dev(np.ones(n, dtype=np.float32)), out), [out]


def _archetype_args(name):
    if name == "saxpy":
        out = cuda.device_array(4096)
        return (np.float32(2.5), _dev(_f32(4096)), _dev(_f32(4096, seed=8)),
                out), [out]
    if name == "stencil":
        out = cuda.device_array((64, 64))
        return (_dev(_f32(64, 64)), out), [out]
    if name == "block_sum":
        out = cuda.device_array(2)
        return (_dev(_f32(2 * TPB)), out), [out]
    if name == "matmul":
        out = cuda.device_array((MAT, MAT))
        return (_dev(_f32(MAT, MAT)), _dev(_f32(MAT, MAT, seed=9)),
                out), [out]
    out = cuda.device_array(4096)
    return (_dev(_f32(4096)), out), [out]


def _one_out(shape, fill=None):
    def build():
        out = (cuda.device_array(shape) if fill is None
               else cuda.to_device(np.full(shape, fill, dtype=np.float32)))
        return (out,), [out]
    return build


def _x_out(n, seed=7, out_shape=None):
    def build():
        out = cuda.device_array(n if out_shape is None else out_shape)
        return (_dev(_f32(n, seed=seed)), out), [out]
    return build


def _given_x(x):
    def build():
        out = cuda.device_array(x.size)
        return (_dev(x), out), [out]
    return build


def _with_int(n):
    out = cuda.device_array(50)
    return (_dev(np.arange(50, dtype=np.float32) - 20), n, out), [out]


def _int_out():
    out = cuda.to_device(np.zeros(50, np.int32))
    return (_dev(np.arange(50, dtype=np.float32) - 20), out), [out]


def _gather_args():
    n = 64
    out = cuda.device_array(n)
    idx = _rng().permutation(n).astype(np.int64)
    return (_dev(idx), _dev(_f32(n)), out), [out]


def _host_inc():
    host = np.zeros(16, dtype=np.float32)
    return (host,), [host]


def _matmul_args(n=8):
    def build():
        c = cuda.device_array((n, n))
        return (_dev(_f32(n, n)), _dev(_f32(n, n, seed=9)), c), [c]
    return build


def _blur_args():
    out = cuda.device_array((32, 32))
    img = _rng(0).random((32, 32)).astype(np.float32)
    return (_dev(img), out), [out]


def _int_array_out(n, dtype, fill=None):
    def build():
        out = cuda.to_device(np.zeros(n, dtype))
        if fill is None:
            return (out,), [out]
        return (_dev(np.full(n, fill, dtype)), out), [out]
    return build


def _atomic_args():
    out = cuda.to_device(np.zeros(1, dtype=np.float32))
    return (_dev(np.arange(128, dtype=np.float32)), out), [out]


#: (kernel, grid, block, argument factory, lowered?)
CASES = {
    "perfbench-saxpy": (saxpy, 16, 256, lambda: _archetype_args("saxpy"),
                        True),
    "perfbench-stencil": (stencil, (4, 4), (16, 16),
                          lambda: _archetype_args("stencil"), True),
    "perfbench-block_sum": (block_sum, 2, TPB,
                            lambda: _archetype_args("block_sum"), True),
    "perfbench-matmul": (matmul, (MAT // TILE, MAT // TILE), (TILE, TILE),
                         lambda: _archetype_args("matmul"), True),
    "perfbench-divergent": (divergent, 16, 256,
                            lambda: _archetype_args("divergent"), True),
    "lab5-saxpy": (saxpy, 4, 256, _saxpy_args, True),
    "fill2d": (fill2d, (1, 1), (8, 8), _one_out((4, 6)), True),
    "fill3d": (fill3d, (2, 2, 2), (3, 2, 3), _one_out((5, 3, 4)), True),
    "strided_inc": (strided_inc, 2, 16, _one_out(100, 0.0), False),
    "record": (record, 4, 2, _one_out(8), True),
    "leak_check": (leak_check, 2, 4, _one_out(8), False),
    "atomic_block_sum": (atomic_block_sum, 4, 32, _atomic_args, False),
    "atomic_max": (kmax, 1, 64, _x_out(64, out_shape=1), False),
    "host-array-inc": (inc, 1, 16, _host_inc, True),
    "guarded_matmul": (guarded_matmul, (2, 2), (4, 4), _matmul_args(), True),
    "tiled_sum": (tiled_sum, 4, 16, _x_out(64), True),
    "double": (double, 1, 64, _x_out(64), True),
    "gather": (gather, 1, 64, _gather_args, False),
    "tree_sum": (tree_sum, 2, 64, _x_out(128), True),
    "examples-blur": (blur, (4, 4), (8, 8), _blur_args, True),
    "early_exit": (early_exit, 3, 32, _x_out(80), True),
    "mixed-types": (mixed_types, 3, 32, _x_out(80), False),
    "nested-exits": (nested_exits, 2, 32, lambda: _with_int(40), True),
    "int-result": (int_result, 2, 32, _int_out, True),
    "nep50-int-index": (scaled_index, 2, 64, _x_out(100), True),
    "folded-const": (scaled_const, 2, 64, _x_out(100), True),
    "int64-overflow-hash": (lcg_hash, 2, 32, _int_array_out(50, np.int64),
                            False),
    "int64-hash": (small_hash, 2, 32, _int_array_out(50, np.int64), True),
    "int32-overflow": (square, 1, 64, _int_array_out(64, np.int32, 50_000),
                       False),
    "int32-no-overflow": (square, 1, 64, _int_array_out(64, np.int32, 100),
                          True),
    "int-past-2**53-to-float": (big_to_float, 1, 64, _one_out(64), False),
}


def _fresh(kernel: CudaKernel) -> CudaKernel:
    return CudaKernel(kernel.fn, flops_per_thread=kernel.flops_per_thread,
                      bytes_per_thread=kernel.bytes_per_thread)


def _host_bytes(out) -> tuple:
    arr = out if isinstance(out, np.ndarray) else out.get()
    return arr.dtype.str, arr.shape, arr.tobytes()


def _run(kernel, grid, block, build, interpret: bool):
    """Two launches with fresh arguments; observes the second's outputs
    and numpy warnings."""
    system = make_system(1, "T4")
    k = _fresh(kernel)
    with mock.patch.object(CudaKernel, "_run_lowered",
                           return_value=False) if interpret \
            else contextlib.nullcontext():
        for _ in range(2):
            args, outs = build()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                k[grid, block](*args)
    observed = ([_host_bytes(o) for o in outs], system.clock.now_ns,
                k.launch_count, list(k.performance_warnings),
                sorted({str(w.message) for w in caught}))
    return observed, k


def assert_identical(kernel, grid, block, build) -> CudaKernel:
    """Launch through the dispatcher and on the interpreter; return the
    dispatcher's kernel instance once the two agree exactly."""
    lowered, k = _run(kernel, grid, block, build, interpret=False)
    interpreted, _ = _run(kernel, grid, block, build, interpret=True)
    assert lowered == interpreted
    return k


def _variant(k: CudaKernel):
    (variant,) = k.variants.values()
    return variant


def _variant_for(k: CudaKernel, scale: int):
    """The variant of ``k`` whose folded ``SCALE`` is ``scale``."""
    (variant,) = (v for key, v in k.variants.items()
                  if ("SCALE", int, scale) in key[3])
    return variant


class TestByteIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dispatcher_matches_interpreter(self, case):
        kernel, grid, block, build, lowered = CASES[case]
        k = assert_identical(kernel, grid, block, build)
        assert _variant(k).lowered is lowered, _variant(k).reason

    def test_archetypes_lower_to_their_class(self):
        for name, klass in (("saxpy", "elementwise"),
                            ("stencil", "stencil"),
                            ("block_sum", "reduction"),
                            ("matmul", "tiled-matmul")):
            kernel, grid, block, build, _ = CASES[f"perfbench-{name}"]
            k = assert_identical(kernel, grid, block, build)
            assert _variant(k).reason == f"lowered {klass}"

    def test_weak_int_lane_keeps_float32(self):
        k = assert_identical(scaled_index, 2, 64, _x_out(100))
        assert _variant(k).lowered
        make_system(1, "T4")
        args, (out,) = _x_out(100)()
        k[2, 64](*args)
        x = args[0].get()
        expect = np.array([x[i] * i for i in range(100)], dtype=np.float32)
        assert out.get().dtype == np.float32
        assert out.get().tobytes() == expect.tobytes()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 200), tpb=st.integers(1, 64),
           extra=st.integers(0, 2))
    def test_property_1d(self, n, tpb, extra):
        grid = (n + tpb - 1) // tpb + extra

        def build():
            out = cuda.device_array(n)
            return (2.0, _dev(_f32(n)), _dev(_f32(n, seed=3)), out), [out]

        k = assert_identical(saxpy, grid, tpb, build)
        assert _variant(k).lowered

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(h=st.integers(1, 12), w=st.integers(1, 12),
           bx=st.integers(1, 8), by=st.integers(1, 8),
           extra=st.integers(0, 1))
    def test_property_2d(self, h, w, bx, by, extra):
        grid = ((h + bx - 1) // bx + extra, (w + by - 1) // by)
        k = assert_identical(fill2d, grid, (bx, by), _one_out((h, w)))
        assert _variant(k).lowered


class TestNeverLowered:
    @pytest.mark.parametrize("kernel, build", [
        (racy_sum, _x_out(64, out_shape=1)),
        (neighbour_update, _one_out(64, 1.0)),
        (gather, _gather_args),
        (atomic_count, _one_out(1, 0.0)),
        (local_temp, _x_out(64)),
    ])
    def test_interpreted(self, kernel, build):
        k = assert_identical(kernel, 2, 32, build)
        assert not _variant(k).lowered

    def test_unguarded_overrun_raises_like_the_interpreter(self, system1):
        k = _fresh(unguarded)
        for _ in range(2):
            with pytest.raises(IndexError):
                k[2, 32](cuda.device_array(60))
        assert _variant(k).reason.startswith("not proven")

    def test_kernel_without_source(self, system1):
        ns: dict = {"cuda": cuda}
        exec("@cuda.jit\ndef fill(out):\n"
             "    i = cuda.grid(1)\n"
             "    if i < out.size:\n"
             "        out[i] = 2.0\n", ns)
        for _ in range(2):
            out = cuda.device_array(64)
            ns["fill"][1, 64](out)
            assert out.get().sum() == 128
        assert "not retrievable" in _variant(ns["fill"]).reason

    def test_source_changed_on_disk(self, system1, tmp_path):
        path = tmp_path / "edited_kernel.py"
        path.write_text(textwrap.dedent("""\
            from repro.jit import cuda

            @cuda.jit
            def fill(out):
                i = cuda.grid(1)
                if i < out.size:
                    out[i] = 1.0
            """))
        spec = importlib.util.spec_from_file_location("edited_kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path.write_text(path.read_text().replace("1.0", "5.0")
                        + "\n# edited\n")
        for _ in range(2):
            out = cuda.device_array(64)
            module.fill[1, 64](out)
            assert set(out.get().tolist()) == {1.0}
        assert "no longer matches" in _variant(module.fill).reason

    def test_detector_forces_the_interpreter(self, system1):
        k = _fresh(racy_sum)
        ok = _fresh(saxpy)
        det = RaceDetector()
        with det.attach():
            k[2, 32](_dev(np.ones(64, np.float32)), cuda.device_array(1))
            args, _ = _saxpy_args()
            ok[4, 256](*args)
        assert not k.variants and not ok.variants
        assert {f.rule for f in det.races} & {"SAN-DYN-RW", "SAN-DYN-WW"}
        report = check_launch(_fresh(racy_sum), 2, 32,
                              _dev(np.ones(64, np.float32)),
                              cuda.device_array(1))
        assert any(f.rule.startswith("SAN-DYN-") for f in report.findings)

    def test_raising_float_errors_stay_on_the_interpreter(self, system1):
        k = _fresh(reciprocal)
        ones = np.ones(64, np.float32)
        for _ in range(2):
            k[1, 64](_dev(ones), cuda.device_array(64))
        assert _variant(k).lowered
        x = ones.copy()
        x[5] = 0.0
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            k[1, 64](_dev(x), cuda.device_array(64))
        assert _variant(k).lowered

    def test_float_warning_prints_like_the_interpreter(self, system1):
        x = np.ones(64, np.float32)
        x[5] = 0.0
        k = assert_identical(reciprocal, 1, 64, _given_x(x))
        assert "numpy would warn: divide" in _variant(k).reason
        for kernel in (_fresh(reciprocal), k):
            for _ in range(2):
                out = cuda.device_array(64)
                with pytest.warns(RuntimeWarning, match="divide by zero"):
                    kernel[1, 64](_dev(x), out)
                assert np.isinf(out.get()[5])

    def test_int_overflow_falls_back_with_its_reason(self):
        k = assert_identical(lcg_hash, 2, 32, _int_array_out(50, np.int64))
        assert "would leave int64" in _variant(k).reason
        k = assert_identical(square, 1, 64,
                             _int_array_out(64, np.int32, 50_000))
        assert "would overflow" in _variant(k).reason
        x = np.full(64, 50_000, np.int32)
        out = cuda.to_device(np.zeros(64, np.int32))
        with pytest.warns(RuntimeWarning, match="overflow"):
            k[1, 64](_dev(x), out)
        assert out.get().tobytes() == (x * x).tobytes()

    def test_numpy_before_2_is_not_lowered(self, monkeypatch):
        from repro.jit import lowering

        monkeypatch.setattr(lowering, "_NEP50", False)
        k = assert_identical(scaled_index, 2, 64, _x_out(100))
        assert "numpy < 2" in _variant(k).reason

    def test_one_lane_per_cell_is_checked_at_run_time(self, system1):
        @cuda.jit
        def block_total(x, out):
            i = cuda.grid(1)
            if i < x.size:
                out[cuda.blockIdx.x] += x[i]

        k = assert_identical(block_total, 2, 32, _x_out(64))
        assert not _variant(k).lowered
        assert _variant(k).reason.startswith("rolled back")


class TestProofOnce:
    @staticmethod
    def _count(monkeypatch):
        calls = []
        real = CudaKernel.classify

        def counting(self, launch=None):
            calls.append(launch)
            return real(self, launch)

        monkeypatch.setattr(CudaKernel, "classify", counting)
        return calls

    def test_one_proof_per_key(self, system1, monkeypatch):
        calls = self._count(monkeypatch)
        k = _fresh(saxpy)
        args, _ = _saxpy_args()
        for _ in range(100):
            k[4, 256](*args)
        assert len(calls) == 1 and _variant(k).lowered

    def test_negative_verdicts_are_cached(self, system1, monkeypatch):
        calls = self._count(monkeypatch)
        k = _fresh(gather)
        args, _ = _gather_args()
        for _ in range(100):
            k[1, 64](*args)
        assert len(calls) == 1 and not _variant(k).lowered

    def test_new_key_new_proof(self, system1, monkeypatch):
        calls = self._count(monkeypatch)
        k = _fresh(scaled_const)
        k[2, 64](_dev(_f32(100)), cuda.device_array(100))
        assert not calls                       # the first launch of a key
        k[2, 64](_dev(_f32(100)), cuda.device_array(100))
        assert len(calls) == 1
        for _ in range(2):
            k[2, 64](_dev(_f32(90)), cuda.device_array(90))          # shape
            k[2, 64](_dev(np.ones(100)), cuda.device_array(100))     # dtype
            k[4, 32](_dev(_f32(100)), cuda.device_array(100))        # grid
        monkeypatch.setitem(scaled_const.fn.__globals__, "SCALE", 4)
        x = _f32(100)
        for _ in range(2):
            out = cuda.device_array(100)
            k[4, 32](_dev(x), out)                               # constant
        assert len(calls) == 5
        assert calls[-1].ints["SCALE"] == 4
        assert _variant_for(k, 4).lowered
        assert out.get().tobytes() == (x * 4).tobytes()

    def test_one_shot_launches_are_never_proven(self, system1, monkeypatch):
        calls = self._count(monkeypatch)
        k = _fresh(nested_exits)
        args, _ = _with_int(40)
        k[2, 32](*args)
        k[2, 32](*args)                        # a hot key
        for n in range(50):                    # a new int value each launch
            k[2, 32](*_with_int(n)[0])
            k[2, 32](*args)
        assert len(calls) == 1
        assert len(k.variants) == cuda._MAX_SIGNATURES
        assert k.variants[next(reversed(k.variants))].lowered

    def test_import_is_lazy(self, tmp_path):
        script = tmp_path / "lazy_import.py"
        script.write_text(textwrap.dedent("""\
            import sys

            def analysis_modules():
                return [m for m in sys.modules
                        if m.startswith("repro.analysis")]

            import repro.jit
            from repro.gpu import make_system
            from repro.jit import cuda
            assert not analysis_modules(), analysis_modules()

            @cuda.jit
            def fill(out):
                i = cuda.grid(1)
                if i < out.size:
                    out[i] = 1.0

            make_system(1, "T4")
            fill[1, 32](cuda.device_array(32))
            assert not analysis_modules(), analysis_modules()
            fill[1, 32](cuda.device_array(32))
            assert "repro.analysis.absint" in sys.modules
            """))
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, str(script)], check=True, env=env)
