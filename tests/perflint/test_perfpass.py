"""PERF-* loop/dataflow rules: flag the hoistable, spare the legitimate."""

from repro.analysis import AnalysisContext
from repro.perflint import analyze_source
from repro.perflint.perfpass import perf_pass


def _rules(source: str) -> dict[str, list[int]]:
    report = perf_pass(AnalysisContext(source, "lab.py"))
    out: dict[str, list[int]] = {}
    for f in report.findings:
        out.setdefault(f.rule, []).append(f.line)
    return out


class TestLoopTransfer:
    def test_invariant_transfer_in_loop_flagged(self):
        rules = _rules('''\
from repro.jit import cuda

host = load()
for epoch in range(10):
    dev = cuda.to_device(host)
''')
        assert rules == {"PERF-LOOP-TRANSFER": [5]}

    def test_per_iteration_transfer_not_flagged(self):
        rules = _rules('''\
from repro.jit import cuda

for batch in loader:
    dev = cuda.to_device(batch)
''')
        assert rules == {}

    def test_transfer_outside_loop_not_flagged(self):
        assert _rules("dev = cuda.to_device(host)\n") == {}

    def test_xp_asarray_counts_only_through_xp_alias(self):
        flagged = _rules('''\
import repro.xp as xp

for i in range(10):
    d = xp.asarray(host)
''')
        assert flagged == {"PERF-LOOP-TRANSFER": [4]}
        # bare np.asarray is host-side and cheap: not a transfer
        assert _rules('''\
import numpy as np

for i in range(10):
    h = np.asarray(rows)
''') == {}

    def test_innermost_loop_decides_invariance(self):
        # invariant w.r.t. the inner loop even though `epoch` varies
        rules = _rules('''\
from repro.jit import cuda

for epoch in range(5):
    staged = stage(epoch)
    for step in range(100):
        dev = cuda.to_device(staged)
''')
        assert rules == {"PERF-LOOP-TRANSFER": [6]}


class TestLoopAlloc:
    def test_invariant_xp_alloc_flagged(self):
        rules = _rules('''\
import repro.xp as xp

for i in range(10):
    buf = xp.zeros(1024)
''')
        assert rules == {"PERF-LOOP-ALLOC": [4]}

    def test_loop_sized_alloc_not_flagged(self):
        assert _rules('''\
import repro.xp as xp

for n in (128, 256, 512):
    buf = xp.zeros(n)
''') == {}

    def test_np_alloc_in_loop_not_flagged(self):
        # numpy allocations are host-side; the library itself does this
        assert _rules('''\
import numpy as np

for i in range(10):
    acc = np.zeros(1024)
''') == {}

    def test_make_system_any_spelling(self):
        rules = _rules('''\
for p in ("metis", "random"):
    system = make_system(4, "T4")
''')
        assert rules == {"PERF-LOOP-ALLOC": [2]}

    def test_comprehensions_are_not_loops(self):
        assert _rules('''\
import repro.xp as xp

bufs = [xp.zeros(64) for _ in range(4)]
''') == {}


class TestBlockingSync:
    def test_tainted_stream_sync_in_loop_flagged(self):
        rules = _rules('''\
s = dev.stream()
for i in range(10):
    launch(s)
    s.synchronize()
''')
        assert rules == {"PERF-BLOCKING-SYNC": [4]}

    def test_untainted_receiver_not_flagged(self):
        # `system.synchronize()` on a non-stream object stays silent
        assert _rules('''\
for i in range(10):
    system.synchronize()
''') == {}

    def test_sync_after_loop_not_flagged(self):
        assert _rules('''\
s = dev.stream()
for i in range(10):
    launch(s)
s.synchronize()
''') == {}


class TestUnbucketed:
    def test_per_parameter_allreduce_flagged(self):
        rules = _rules('''\
from repro.distributed import ring_allreduce

for p in params:
    g = ring_allreduce(p, devices)
''')
        assert rules == {"PERF-UNBUCKETED": [4]}

    def test_per_epoch_allreduce_not_flagged(self):
        # one all-reduce per epoch over the whole gradient is the
        # legitimate pattern src/repro/gcn uses
        assert _rules('''\
from repro.distributed import ring_allreduce

for epoch in range(10):
    grads = backward(batch)
    g = ring_allreduce(grads, devices)
''') == {}

    def test_bucketed_allreduce_is_the_fix(self):
        assert _rules('''\
from repro.distributed import bucketed_allreduce

for epoch in range(10):
    flat = bucketed_allreduce(grads, devices)
''') == {}


class TestFindingContract:
    def test_findings_carry_rule_location_and_hint(self):
        report = analyze_source('''\
import repro.xp as xp

for i in range(10):
    buf = xp.zeros(1024)
''', "lab.py", analyzers=("perf",))
        (f,) = report.findings
        assert f.rule == "PERF-LOOP-ALLOC"
        assert f.location == "lab.py:4"
        assert "before the loop" in f.hint
