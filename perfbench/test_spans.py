"""Tests of the span fold and of the patching it relies on.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import END_TO_END, PER_LAYER  # noqa: E402
from spans import Recorder  # noqa: E402


def ticking(*times):
    """A clock that returns ``times`` in order."""
    return iter(times).__next__


def test_self_time_is_span_minus_children():
    rec = Recorder(clock=ticking(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    rec.enter("a")          # 0
    rec.enter("b")          # 2
    rec.exit()              # 5
    rec.enter("c")          # 6
    rec.exit()              # 7
    rec.exit()              # 10
    a, b, c = rec.layers["a"], rec.layers["b"], rec.layers["c"]
    assert (a.calls, a.total_s, a.self_s) == (1, 10.0, 6.0)
    assert (b.calls, b.total_s, b.self_s) == (1, 3.0, 3.0)
    assert (c.calls, c.total_s, c.self_s) == (1, 1.0, 1.0)
    assert rec.top_level_s == 10.0
    assert a.self_s + b.self_s + c.self_s == rec.top_level_s


def test_grandchildren_count_only_against_their_parent():
    rec = Recorder(clock=ticking(0.0, 1.0, 2.0, 4.0, 5.0, 8.0))
    with rec.span("a"):             # 0 .. 8
        with rec.span("b"):         # 1 .. 5
            with rec.span("c"):     # 2 .. 4
                pass
    assert rec.layers["a"].self_s == 4.0
    assert rec.layers["b"].self_s == 2.0
    assert rec.layers["c"].self_s == 2.0


def test_reentered_layer_counts_one_call_and_no_double_time():
    rec = Recorder(clock=ticking(0.0, 1.0, 3.0, 4.0))
    with rec.span("gpu.device"):            # launch_auto: 0 .. 4
        with rec.span("gpu.device"):        # launch: 1 .. 3
            pass
    dev = rec.layers["gpu.device"]
    assert dev.calls == 1
    assert dev.total_s == 4.0
    assert dev.self_s == 4.0
    assert rec.top_level_s == 4.0


def test_consecutive_top_level_spans_add_up():
    rec = Recorder(clock=ticking(0.0, 1.0, 5.0, 7.0))
    with rec.span("a"):
        pass
    with rec.span("a"):
        pass
    assert rec.layers["a"].calls == 2
    assert rec.layers["a"].total_s == 3.0
    assert rec.top_level_s == 3.0
    assert rec.stats("a", "missing").self_s == 3.0


def test_memory_pool_inside_kv_grow_is_split_between_layers():
    from repro.gpu.memory import MemoryPool
    from repro.llm.kvcache import PagedKvCache

    pool = MemoryPool(1 << 20, reserve_fraction=0.0)
    kv = PagedKvCache(pool, bytes_per_token=64, page_tokens=1)
    assert kv.allocate(7, 1)
    rec = Recorder()
    rec.wrap(PagedKvCache, "grow", "llm.kvcache.grow")
    rec.wrap(MemoryPool, "allocate", "gpu.memory")
    try:
        for _ in range(50):
            assert kv.grow(7)
    finally:
        rec.restore()
    grow, mem = rec.layers["llm.kvcache.grow"], rec.layers["gpu.memory"]
    assert grow.calls == 50
    assert mem.calls == 50          # one page per token at page_tokens=1
    assert mem.total_s < grow.total_s
    assert grow.self_s == pytest.approx(grow.total_s - mem.total_s)
    assert grow.self_s + mem.self_s == pytest.approx(rec.top_level_s)
    kv.release(7)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_restore_puts_back_the_original_attributes():
    module = types.ModuleType("fake")
    module.func = lambda x: x - 1
    originals = {name: vars(_Target)[name]
                 for name in ("method", "make", "helper")}
    original_func = module.func
    rec = Recorder()
    for name in originals:
        rec.wrap(_Target, name, "t")
    rec.wrap(module, "func", "t")
    assert all(vars(_Target)[n] is not o for n, o in originals.items())
    assert isinstance(vars(_Target)["make"], classmethod)
    assert isinstance(vars(_Target)["helper"], staticmethod)
    assert _Target().method(1) == 2
    assert _Target.make(3) == (_Target, 3)
    assert _Target.helper(4) == 8
    assert module.func(5) == 4
    assert rec.layers["t"].calls == 4
    rec.restore()
    assert all(vars(_Target)[n] is o for n, o in originals.items())
    assert module.func is original_func


def test_wrapped_function_that_raises_still_closes_its_span():
    def boom():
        raise ValueError("x")

    module = types.ModuleType("fake")
    module.boom = boom
    rec = Recorder()
    rec.wrap(module, "boom", "t")
    with pytest.raises(ValueError):
        module.boom()
    rec.restore()
    assert rec.layers["t"].calls == 1
    assert rec._stack == []


def test_calls_from_other_threads_pass_through_untimed():
    module = types.ModuleType("fake")
    module.func = lambda: 1
    rec = Recorder()
    rec.wrap(module, "func", "t")
    worker = threading.Thread(target=module.func)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.restore()
    assert "t" not in rec.layers


def test_benchmark_json_names_the_metrics_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    from run import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads())


def test_install_probes_is_fully_undone():
    from harness import install_probes

    rec = Recorder()
    install_probes(rec)
    patched = list(rec._patches)
    assert len(patched) > 40
    assert all(vars(owner)[attr] is not raw for owner, attr, raw in patched)
    rec.restore()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)
