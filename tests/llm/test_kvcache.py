"""PagedKvCache: page arithmetic, soft exhaustion, ledger conservation,
the bulk decode step and its incremental counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.gpu.memory import MemoryPool
from repro.llm import PagedKvCache

BYTES_PER_TOKEN = 4
PAGE_TOKENS = 4
PAGE_BYTES = BYTES_PER_TOKEN * PAGE_TOKENS
POOL_PAGES = 10


@pytest.fixture
def cache():
    pool = MemoryPool(POOL_PAGES * PAGE_BYTES, reserve_fraction=0.0,
                      stats_page_bytes=PAGE_BYTES)
    return PagedKvCache(pool, BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)


class TestAllocation:
    def test_allocate_rounds_tokens_up_to_pages(self, cache):
        assert cache.allocate(1, 5)          # 5 tokens -> 2 pages
        assert cache.live_pages == 2
        assert cache.tokens_of(1) == 5
        assert len(cache.page_table(1)) == 2

    def test_double_allocate_raises(self, cache):
        assert cache.allocate(1, 4)
        with pytest.raises(ReproError):
            cache.allocate(1, 4)

    def test_allocate_is_all_or_nothing_on_exhaustion(self, cache):
        assert cache.allocate(1, 8 * PAGE_TOKENS)      # 8 of 10 pages
        free_before = cache.pool.free_bytes
        assert not cache.allocate(2, 3 * PAGE_TOKENS)  # needs 3, has 2
        assert cache.pool.free_bytes == free_before    # nothing held
        assert cache.live_seqs == 1
        assert cache.failed_grows == 1

    def test_can_admit_tracks_free_pages(self, cache):
        assert cache.can_admit(POOL_PAGES * PAGE_TOKENS)
        assert not cache.can_admit(POOL_PAGES * PAGE_TOKENS + 1)


class TestGrow:
    def test_grow_only_allocates_across_page_boundary(self, cache):
        cache.allocate(1, 5)                  # page 2 holds tokens 5..8
        assert cache.grow(1, 3)               # fills page 2: no new page
        assert cache.live_pages == 2
        assert cache.pages_to_grow(1) == 1    # next token needs a page
        assert cache.grow(1)                  # crosses into page 3
        assert cache.live_pages == 3

    def test_grow_soft_fails_with_sequence_unchanged(self, cache):
        cache.allocate(1, POOL_PAGES * PAGE_TOKENS)   # pool is full
        assert cache.pages_to_grow(1) == 1
        assert not cache.grow(1)
        assert cache.tokens_of(1) == POOL_PAGES * PAGE_TOKENS
        assert cache.failed_grows == 1

    def test_grow_unknown_sequence_raises(self, cache):
        with pytest.raises(ReproError):
            cache.grow(99)
        with pytest.raises(ReproError):
            cache.pages_to_grow(99)


class TestReleaseAndConservation:
    def test_release_returns_pages_to_the_pool(self, cache):
        cache.allocate(1, 7)
        cache.allocate(2, 4)
        assert cache.release(1) == 2
        assert cache.release(1) == 0          # idempotent
        assert cache.live_seqs == 1
        cache.release(2)
        assert cache.live_pages == 0
        assert cache.pool.free_bytes == POOL_PAGES * PAGE_BYTES
        assert cache.pool.leak_report().ok

    def test_every_page_is_a_tracked_pool_allocation(self, cache):
        cache.allocate(1, 3 * PAGE_TOKENS)
        report = cache.pool.leak_report()
        assert not report.ok                  # pages held = "leaks" live
        assert report.total_bytes == 3 * PAGE_BYTES


class TestPeakStats:
    def test_peak_pages_survive_release(self, cache):
        cache.allocate(1, 6 * PAGE_TOKENS)
        cache.release(1)
        cache.allocate(2, PAGE_TOKENS)
        assert cache.peak_pages == 6

    def test_peak_utilization_measures_partial_last_pages(self, cache):
        cache.allocate(1, 6)                  # 6 tokens over 2 pages
        assert cache.peak_page_utilization == pytest.approx(6 / 8)
        assert cache.utilization() == pytest.approx(6 / 8)

    def test_validation(self, cache):
        with pytest.raises(ReproError):
            PagedKvCache(cache.pool, BYTES_PER_TOKEN, page_tokens=0)
        with pytest.raises(ReproError):
            PagedKvCache(cache.pool, 0)


class TestStep:
    def test_step_grants_one_token_each_and_pages_on_boundaries(self, cache):
        cache.allocate(1, PAGE_TOKENS)        # last page full
        cache.allocate(2, 5)                  # room left on page 2
        assert cache.pages_for_step([1, 2]) == 1
        cache.step([1, 2])
        assert (cache.tokens_of(1), cache.tokens_of(2)) == (5, 6)
        assert cache.live_pages == 4
        assert cache.live_tokens == 11

    def test_step_short_of_pages_raises_with_nothing_changed(self, cache):
        cache.allocate(1, POOL_PAGES * PAGE_TOKENS)   # pool is full
        with pytest.raises(ReproError, match="after capacity check"):
            cache.step([1])
        assert cache.tokens_of(1) == POOL_PAGES * PAGE_TOKENS
        assert cache.live_pages == POOL_PAGES

    def test_step_unknown_sequence_raises(self, cache):
        cache.allocate(1, 3)
        with pytest.raises(ReproError, match="99"):
            cache.step([1, 99])
        with pytest.raises(ReproError):
            cache.pages_for_step([99])
        assert cache.tokens_of(1) == 3


class TestCounterAudit:
    def test_audit_passes_on_consistent_counters(self, cache):
        cache.allocate(1, 7)
        cache.step([1])
        cache.audit()

    def test_audit_catches_counter_drift(self, cache):
        cache.allocate(1, 7)
        cache._live_pages -= 1
        with pytest.raises(ReproError, match="drift"):
            cache.audit()


# -- properties --------------------------------------------------------------

SEQS = st.integers(0, 5)
OPS = st.lists(st.one_of(
    st.tuples(st.just("allocate"), SEQS, st.integers(0, 20)),
    st.tuples(st.just("grow"), SEQS, st.integers(1, 6)),
    st.tuples(st.just("step"), st.lists(SEQS, unique=True, max_size=6)),
    st.tuples(st.just("release"), SEQS),
), max_size=40)


def _fresh_cache():
    pool = MemoryPool(12 * PAGE_BYTES, reserve_fraction=0.0,
                      stats_page_bytes=PAGE_BYTES)
    return PagedKvCache(pool, BYTES_PER_TOKEN, page_tokens=PAGE_TOKENS)


def _assert_counters_match_recount(kv):
    assert kv.live_pages == sum(len(kv.page_table(s)) for s in range(6))
    assert kv.live_tokens == sum(kv.tokens_of(s) for s in range(6))
    kv.audit()


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_step_matches_a_grow_loop_and_counters_match_a_recount(ops):
    """``stepped`` takes each decode step in bulk, ``grown`` as a loop of
    ``grow``; both see every other operation identically."""
    stepped, grown = _fresh_cache(), _fresh_cache()
    for op in ops:
        kind = op[0]
        if kind == "step":
            ids = [s for s in op[1] if s in stepped._tables]
            if stepped.pages_for_step(ids) > stepped.free_pages:
                before = [stepped.tokens_of(s) for s in ids]
                with pytest.raises(ReproError):
                    stepped.step(ids)
                assert [stepped.tokens_of(s) for s in ids] == before
                continue
            stepped.step(ids)
            for s in ids:
                assert grown.grow(s)
        else:
            for kv in (stepped, grown):
                if kind == "allocate":
                    if op[1] not in kv._tables:
                        kv.allocate(op[1], op[2])
                elif kind == "grow":
                    if op[1] in kv._tables:
                        kv.grow(op[1], op[2])
                else:
                    kv.release(op[1])
        for kv in (stepped, grown):
            _assert_counters_match_recount(kv)
        for s in range(6):
            assert stepped.page_table(s) == grown.page_table(s)
            assert stepped.tokens_of(s) == grown.tokens_of(s)
        assert stepped.peak_pages == grown.peak_pages
        assert stepped.peak_page_utilization == grown.peak_page_utilization
        assert stepped.utilization() == grown.utilization()
