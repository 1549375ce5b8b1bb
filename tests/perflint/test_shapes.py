"""The abstract shape/dtype interpreter behind PERF-SHAPE / PERF-DTYPE."""

import pytest

from repro.analysis import AnalysisContext
from repro.perflint.shapes import (
    AbstractArray,
    broadcast_shapes,
    matmul_shape,
    shape_pass,
)


def _report(source: str, filename: str = "lab.py"):
    return shape_pass(AnalysisContext(source, filename))


class TestShapeAlgebra:
    @pytest.mark.parametrize("a, b, out", [
        ((4, 4), (4, 4), (4, 4)),
        ((4, 4), (4,), (4, 4)),
        ((4, 1), (1, 5), (4, 5)),
        ((8, 1, 6), (7, 1), (8, 7, 6)),
        ((3,), (), (3,)),
        ((4, 4), (3,), None),
        ((2, 3), (2, 4), None),
    ])
    def test_broadcasting_matches_numpy(self, a, b, out):
        assert broadcast_shapes(a, b) == out

    @pytest.mark.parametrize("a, b, out", [
        ((4, 8), (8, 2), (4, 2)),
        ((8,), (8, 2), (2,)),
        ((4, 8), (8,), (4,)),
        ((8,), (8,), ()),
        ((4, 8), (7, 2), None),
        ((8,), (7, 2), None),
    ])
    def test_matmul_inner_dimension(self, a, b, out):
        assert matmul_shape(a, b) == out


class TestInterpreterTracking:
    @pytest.mark.parametrize("expr, shape", [
        ("xp.zeros((4, 8))", (4, 8)),
        ("xp.ones(16)", (16,)),
        ("xp.eye(5)", (5, 5)),
        ("xp.arange(10)", (10,)),
        ("xp.zeros((4, 8)).reshape(8, 4)", (8, 4)),
        ("xp.zeros((4, 8)).reshape(-1)", (32,)),
        ("xp.zeros((4, 8)).T", (8, 4)),
        ("xp.zeros((4, 8)).sum(axis=0)", (8,)),
        ("xp.zeros((4, 8)) @ xp.zeros((8, 3))", (4, 3)),
        ("xp.zeros((4, 8)) + xp.zeros((8,))", (4, 8)),
    ])
    def test_tracked_shapes_stay_silent(self, expr, shape):
        # every chain here is well-formed: no findings
        assert _report(f"import repro.xp as xp\nv = {expr}\n").ok

    def test_broadcast_mismatch_is_exactly_one_finding(self):
        report = _report('''\
import repro.xp as xp

a = xp.zeros((4, 4))
b = xp.ones((3,))
c = a + b
''', filename="mismatch.py")
        (f,) = report.findings
        assert f.rule == "PERF-SHAPE"
        assert f.location == "mismatch.py:5"
        assert "(4, 4)" in f.message and "(3,)" in f.message

    def test_impossible_reshape_flagged(self):
        report = _report('''\
import repro.xp as xp

a = xp.zeros((4, 8))
b = a.reshape(5, 7)
''')
        (f,) = report.findings
        assert f.rule == "PERF-SHAPE"
        assert f.line == 4

    def test_unknown_shapes_never_fire(self):
        # anything the interpreter cannot prove stays silent
        assert _report('''\
import repro.xp as xp

a = xp.zeros(n)
b = load_batch()
c = a + b
d = b @ xp.ones((4, 4))
''').ok


class TestNnChains:
    def test_linear_chain_propagates(self):
        assert _report('''\
from repro import nn, xp

model = nn.Sequential(nn.Linear(784, 128), nn.ReLU(),
                      nn.Linear(128, 10))
x = xp.zeros((32, 784))
logits = model(x)
''').ok

    def test_linear_trailing_dim_mismatch_flagged(self):
        report = _report('''\
from repro import nn, xp

layer = nn.Linear(784, 128)
x = xp.zeros((32, 100))
h = layer(x)
''', filename="nnlab.py")
        (f,) = report.findings
        assert f.rule == "PERF-SHAPE"
        assert f.location == "nnlab.py:5"
        assert "in_features=784" in f.message and "100" in f.message

    def test_mismatch_inside_sequential_flagged(self):
        report = _report('''\
from repro import nn, xp

model = nn.Sequential(nn.Linear(784, 128), nn.Linear(64, 10))
x = xp.zeros((32, 784))
y = model(x)
''')
        (f,) = report.findings
        assert f.rule == "PERF-SHAPE"
        assert "in_features=64" in f.message

    def test_flatten_feeds_linear(self):
        assert _report('''\
from repro import nn, xp

model = nn.Sequential(nn.Flatten(), nn.Linear(28 * 28, 10))
''').ok  # 28*28 is not a literal Linear arg: module becomes unknown


class TestDtypePromotion:
    def test_device_f32_times_f64_flagged(self):
        report = _report('''\
import numpy as np
import repro.xp as xp

a = xp.zeros((4, 4))
b = xp.ones((4, 4), dtype=np.float64)
c = a * b
''')
        (f,) = report.findings
        assert f.rule == "PERF-DTYPE"
        assert f.line == 6

    def test_host_only_promotion_not_flagged(self):
        assert _report('''\
import numpy as np

a = np.zeros((4, 4), dtype=np.float32)
b = np.ones((4, 4))
c = a * b
''').ok

    def test_scalar_operand_not_flagged(self):
        assert _report('''\
import repro.xp as xp

a = xp.zeros((4, 4))
b = a * 0.5
''').ok

    def test_astype_is_the_fix(self):
        assert _report('''\
import numpy as np
import repro.xp as xp

a = xp.zeros((4, 4))
b = xp.ones((4, 4), dtype=np.float64)
c = a * b.astype(np.float32)
''').ok


class TestAbstractArray:
    def test_size(self):
        assert AbstractArray(shape=(4, 8)).size == 32
        assert AbstractArray(shape=()).size == 1
