"""Metrics instruments, the registry, and the CloudWatch bridge."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.cloudwatch import Alarm, AlarmState, CloudWatch
from repro.errors import ReproError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_gpu_utilization,
)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("tasks")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ReproError):
            c.inc(-1)

    def test_gauge_set(self):
        g = Gauge("util")
        g.set(42)
        g.set(17.5)
        assert g.value == 17.5

    def test_histogram_exact_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):        # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)
        assert h.mean == pytest.approx(50.5)
        assert h.sum == pytest.approx(5050.0)

    def test_histogram_empty_and_bounds(self):
        h = Histogram("lat")
        assert h.percentile(99) == 0.0 and h.mean == 0.0 and h.sum == 0.0
        with pytest.raises(ReproError):
            h.percentile(101)

    def test_summary_keys(self):
        h = Histogram("lat")
        h.observe(1.0)
        assert set(h.summary()) == {"count", "sum", "mean", "p50", "p95",
                                    "p99"}


class TestReservoirHistogram:
    def test_memory_is_bounded_but_count_and_sum_exact(self):
        h = Histogram("lat", max_samples=128)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.samples) == 128
        assert h.count == 10_000
        assert h.sum == pytest.approx(sum(range(10_000)))
        assert h.mean == pytest.approx(4999.5)

    def test_percentiles_approximate_the_stream(self):
        h = Histogram("lat", max_samples=512)
        for v in range(10_000):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(4999.5, rel=0.15)
        assert h.percentile(95) == pytest.approx(9499.0, rel=0.10)

    def test_reservoir_is_deterministic(self):
        def fill():
            h = Histogram("lat", max_samples=64)
            for v in range(5_000):
                h.observe(float(v))
            return h.samples

        assert fill() == fill()

    def test_below_capacity_is_exact(self):
        h = Histogram("lat", max_samples=1000)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ReproError):
            Histogram("lat", max_samples=0)

    def test_registry_creates_bounded_histograms(self):
        reg = MetricsRegistry()
        h = reg.histogram("serve.latency", max_samples=32)
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 32
        assert reg.histogram("serve.latency") is h  # existing keeps mode


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("tasks", worker="w0")
        b = reg.counter("tasks", worker="w0")
        c = reg.counter("tasks", worker="w1")
        assert a is b and a is not c
        assert a.name == "tasks{worker=w0}"
        assert len(reg) == 2

    def test_label_order_canonical(self):
        reg = MetricsRegistry()
        assert reg.gauge("m", b=1, a=2) is reg.gauge("m", a=2, b=1)

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ReproError):
            reg.histogram("m")

    def test_collect_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(4)
        reg.histogram("lat").observe(2.0)
        snap = reg.collect()
        assert snap["n"] == {"value": 4.0}
        assert snap["lat"]["count"] == 1.0
        assert snap["lat"]["p50"] == 2.0


class TestCloudWatchBridge:
    def test_publish_counts_datapoints(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc(10)
        reg.gauge("util").set(80.0)
        reg.histogram("lat").observe(3.0)
        cw = CloudWatch()
        n = reg.publish_cloudwatch(cw, dimension="i-1", timestamp_h=1.0)
        # 1 counter + 1 gauge + 5 histogram stats
        assert n == 7
        stats = cw.get_statistics("telemetry", "queries", "i-1", 0, 2)
        assert stats["avg"] == 10.0
        stats = cw.get_statistics("telemetry", "lat.p99", "i-1", 0, 2)
        assert stats["count"] == 1.0

    def test_published_metric_drives_alarm(self):
        reg = MetricsRegistry()
        reg.gauge("GPUUtilization").set(3.0)
        cw = CloudWatch()
        cw.put_alarm(Alarm(name="low-util", namespace="telemetry",
                           metric="GPUUtilization", dimension="i-9",
                           threshold=10.0, comparison="less"))
        reg.publish_cloudwatch(cw, dimension="i-9")
        assert cw.evaluate_alarms()["low-util"] is AlarmState.ALARM


class TestGpuUtilization:
    def test_gauges_per_device_and_average(self, system2):
        import numpy as np

        import repro.xp as xp
        a = xp.asarray(np.ones((128, 128), dtype=np.float32))
        xp.matmul(a, a).get()
        reg = MetricsRegistry()
        report = record_gpu_utilization(reg, system2)
        assert set(report) == {0, 1}
        for dev, frac in report.items():
            gauge = reg.gauge("GPUUtilization", device=dev)
            assert gauge.value == pytest.approx(100.0 * frac)
            assert 0.0 <= gauge.value <= 100.0
        avg = reg.gauge("GPUUtilization").value
        assert avg == pytest.approx(
            100.0 * sum(report.values()) / len(report))


class TestDeviceMemory:
    """device.memory gauges and the CloudWatch memory-pressure loop."""

    def _load(self, system, nbytes=1 << 20):
        import numpy as np

        dev = system.device(0)
        return dev.alloc(np.zeros(nbytes // 4, dtype=np.float32),
                         tag="ballast")

    def test_gauges_per_device(self, system2):
        from repro.telemetry.metrics import record_device_memory

        buf = self._load(system2)
        reg = MetricsRegistry()
        report = record_device_memory(reg, system2)
        assert set(report) == {0, 1}
        assert report[0]["used_bytes"] == 1 << 20
        assert reg.gauge("DeviceMemoryUsed", device=0).value == 1 << 20
        assert reg.gauge("DeviceMemoryPeak", device=0).value >= 1 << 20
        assert reg.gauge("DeviceMemoryUtilization", device=0).value > 0
        assert reg.gauge("DeviceMemoryUsed", device=1).value == 0
        buf.free()

    def test_leaked_gauge_counts_ledger_leaks(self, system1):
        from repro.telemetry.metrics import record_device_memory

        self._load(system1)          # never freed -> on the ledger
        reg = MetricsRegistry()
        report = record_device_memory(reg, system1)
        assert report[0]["leaked_bytes"] == 1 << 20
        assert reg.gauge("DeviceMemoryLeaked", device=0).value == 1 << 20

    def test_memory_pressure_alarm_fires_and_clears(self, system1):
        from repro.telemetry.metrics import record_device_memory

        # ballast through the ledger alone (the gauges read only
        # dev.memory), so filling a 16 GB T4 costs no host RAM
        memory = system1.device(0).memory
        ballast = memory.allocate(int(memory.total_bytes * 0.95),
                                  tag="ballast")
        cw = CloudWatch()
        cw.put_alarm(Alarm(name="memory-pressure", namespace="telemetry",
                           metric="DeviceMemoryUtilization",
                           dimension="i-1", threshold=90.0,
                           comparison="greater"))
        reg = MetricsRegistry()
        record_device_memory(reg, system1)
        reg.publish_cloudwatch(cw, dimension="i-1", timestamp_h=1.0)
        assert cw.evaluate_alarms()["memory-pressure"] is AlarmState.ALARM

        memory.free(ballast)
        reg2 = MetricsRegistry()
        record_device_memory(reg2, system1)
        reg2.publish_cloudwatch(cw, dimension="i-1", timestamp_h=2.0)
        assert cw.evaluate_alarms()["memory-pressure"] is AlarmState.OK

    def test_synchronize_publishes_gauges_when_traced(self, system1):
        from repro.telemetry import Tracer

        with Tracer() as tr:
            buf = self._load(system1)
            system1.device(0).synchronize()
        gauge = tr.metrics.gauge("device.memory.used", device=0)
        assert gauge.value == 1 << 20
        assert tr.metrics.gauge("device.memory.peak", device=0).value \
            >= 1 << 20
        buf.free()

    def test_untraced_synchronize_publishes_nothing(self, system1):
        # gauge publication must be a no-op without an active tracer
        self._load(system1)
        system1.device(0).synchronize()    # must not raise


class TestExemplars:
    def test_top_k_by_value_is_retained(self):
        h = Histogram("lat", max_exemplars=3)
        for v, label in [(5.0, "a"), (50.0, "b"), (1.0, "c"),
                         (40.0, "d"), (30.0, "e")]:
            h.observe(v, exemplar=label)
        assert h.top_exemplars() == [(50.0, "b"), (40.0, "d"),
                                     (30.0, "e")]

    def test_retention_is_observation_order_independent(self):
        pairs = [(float(v), f"{i:04d}") for i, v in
                 enumerate(random.Random(5).sample(range(500), 100))]
        baseline = None
        for seed in range(3):
            order = list(pairs)
            random.Random(seed).shuffle(order)
            h = Histogram("lat", max_exemplars=7)
            for v, label in order:
                h.observe(v, exemplar=label)
            if baseline is None:
                baseline = h.top_exemplars()
            assert h.top_exemplars() == baseline

    def test_observe_without_exemplar_keeps_none(self):
        h = Histogram("lat", max_exemplars=3)
        h.observe(1.0)
        assert h.top_exemplars() == []

    def test_disabled_by_default(self):
        h = Histogram("lat")
        h.observe(1.0, exemplar="x")
        assert h.exemplars == []

    def test_registry_plumbs_max_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", max_exemplars=2)
        h.observe(3.0, exemplar="a")
        h.observe(9.0, exemplar="b")
        h.observe(6.0, exemplar="c")
        assert h.top_exemplars() == [(9.0, "b"), (6.0, "c")]


class TestObserveMany:
    def test_one_call_records_a_batch(self):
        h = Histogram("itl", max_exemplars=2)
        h.observe_many(4.0, ["a", "b", "c"])
        assert (h.count, h.sum, h.samples) == (3, 12.0, [4.0] * 3)
        assert h.top_exemplars() == [(4.0, "c"), (4.0, "b")]

    def test_none_labels_record_without_exemplars(self):
        h = Histogram("itl", max_exemplars=2)
        h.observe_many(1.0, [None, None])
        assert h.count == 2 and h.exemplars == []


def _reference_observe(ref, value, label):
    """The one-at-a-time algorithm ``observe_many`` must reproduce:
    append-then-sort exemplar retention, one reservoir draw per
    observation past ``max_samples``."""
    value = float(value)
    ref["count"] += 1
    ref["sum"] += value
    if label is not None and ref["max_exemplars"]:
        ref["exemplars"].append((value, label))
        if len(ref["exemplars"]) > ref["max_exemplars"]:
            ref["exemplars"].sort()
            del ref["exemplars"][0]
    cap = ref["max_samples"]
    if cap is None or len(ref["samples"]) < cap:
        ref["samples"].append(value)
        return
    j = ref["rng"].randrange(ref["count"])
    if j < cap:
        ref["samples"][j] = value


BATCHES = st.lists(st.tuples(
    st.sampled_from([0.5, 1.0, 2.0, 7.25]),
    st.lists(st.none() | st.sampled_from(["a", "b", "c", "d", "e"]),
             max_size=8)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(max_samples=st.none() | st.integers(1, 8),
       max_exemplars=st.integers(0, 4), batches=BATCHES)
def test_observe_many_matches_an_observe_loop(max_samples, max_exemplars,
                                              batches):
    """Batched and one-at-a-time observation agree on everything,
    including the reservoir RNG's state, with caps drawn on both sides
    of the observation count."""
    bulk = Histogram("itl", max_samples=max_samples,
                     max_exemplars=max_exemplars)
    loop = Histogram("itl", max_samples=max_samples,
                     max_exemplars=max_exemplars)
    rng = random.Random()
    rng.setstate(loop._rng.getstate())
    ref = {"count": 0, "sum": 0.0, "samples": [], "exemplars": [],
           "rng": rng, "max_samples": max_samples,
           "max_exemplars": max_exemplars}
    for value, labels in batches:
        bulk.observe_many(value, labels)
        for label in labels:
            loop.observe(value, exemplar=label)
            _reference_observe(ref, value, label)
    for h in (bulk, loop):
        assert h.samples == ref["samples"]
        assert h.top_exemplars() == sorted(ref["exemplars"], reverse=True)
        assert h.count == ref["count"]
        assert h.sum == ref["sum"]
        assert h._rng.getstate() == ref["rng"].getstate()


class TestMergedHistograms:
    def _shard(self, values, labels=None, **kwargs):
        h = Histogram("lat", **kwargs)
        for i, v in enumerate(values):
            h.observe(float(v),
                      exemplar=labels[i] if labels else None)
        return h

    def test_count_and_sum_are_exact(self):
        parts = [self._shard(range(100)), self._shard(range(100, 300))]
        merged = Histogram.merged("lat", parts)
        assert merged.count == 300
        assert merged.sum == pytest.approx(sum(range(300)))

    def test_merge_order_does_not_change_percentiles(self):
        rng = random.Random(11)
        shards = [self._shard([rng.uniform(0, 100) for _ in range(400)],
                              max_samples=64) for _ in range(4)]
        forward = Histogram.merged("lat", shards, max_samples=64)
        backward = Histogram.merged("lat", shards[::-1], max_samples=64)
        assert forward.samples == backward.samples
        for q in (50, 95, 99):
            assert forward.percentile(q) == backward.percentile(q)

    def test_merge_order_does_not_change_exemplars(self):
        a = self._shard([1, 9], labels=["a1", "a9"], max_exemplars=2)
        b = self._shard([5, 7], labels=["b5", "b7"], max_exemplars=2)
        ab = Histogram.merged("lat", [a, b], max_exemplars=3)
        ba = Histogram.merged("lat", [b, a], max_exemplars=3)
        assert ab.top_exemplars() == ba.top_exemplars()
        assert ab.top_exemplars()[0] == (9.0, "a9")

    def test_subsampling_is_evenly_spaced_and_deterministic(self):
        parts = [self._shard(range(1000))]
        merged = Histogram.merged("lat", parts, max_samples=10)
        again = Histogram.merged("lat", parts, max_samples=10)
        assert merged.samples == again.samples
        assert len(merged.samples) == 10
        assert merged.samples[0] == 0.0
        assert merged.samples[-1] == 999.0
        assert merged.samples == sorted(merged.samples)
