"""The paged KV-cache allocator (the vLLM idea, on our ledger).

Naive KV caching reserves ``max_seq_len`` contiguous bytes per sequence
up front; almost all of it is never written, and device memory caps the
batch far below what the live tokens actually need.  Paged allocation
fixes this by handing out fixed-size **pages** of ``page_tokens`` tokens
each, on demand, with a per-sequence page table — internal fragmentation
is bounded by one page per sequence and the batch is capped by *live*
tokens.

Every page is one tracked allocation in the replica's
:class:`~repro.gpu.memory.MemoryPool`, so the pool's conservation
invariant, leak report, OOM enrichment, and
:meth:`~repro.gpu.memory.MemoryPool.fragmentation` stats all apply to
the cache for free.  Exhaustion is a *soft* failure — :meth:`grow` and
:meth:`allocate` return ``False`` instead of raising — because the
scheduler's answer to KV pressure is preemption, not a crash.

Page and token totals are kept as **incremental counters**, updated by
:meth:`allocate`, :meth:`grow`, :meth:`step` and :meth:`release`, so
:attr:`live_pages`, :attr:`live_tokens`, the peak bookkeeping and
:meth:`utilization` are O(1) however many sequences are live.  A decode
iteration grants its whole batch one token each through :meth:`step`
(one capacity check, one peak update); :meth:`audit` recounts the page
tables so a teardown can prove the counters never drifted.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.gpu.memory import Allocation, MemoryPool


class PagedKvCache:
    """Fixed-size-page KV allocator over one pool, one table per seq."""

    def __init__(self, pool: MemoryPool, bytes_per_token: int,
                 page_tokens: int = 16, tag: str = "kv-cache") -> None:
        if page_tokens < 1:
            raise ReproError("page_tokens must be >= 1")
        if bytes_per_token < 1:
            raise ReproError("bytes_per_token must be >= 1")
        self.pool = pool
        self.bytes_per_token = int(bytes_per_token)
        self.page_tokens = int(page_tokens)
        self.page_bytes = self.bytes_per_token * self.page_tokens
        self.tag = tag
        self._tables: dict[int, list[Allocation]] = {}
        self._tokens: dict[int, int] = {}
        self._live_pages = 0
        self._live_tokens = 0
        self.peak_pages = 0
        self.peak_page_utilization = 1.0
        self.failed_grows = 0

    # -- capacity ----------------------------------------------------------

    def _pages_for(self, tokens: int) -> int:
        return -(-int(tokens) // self.page_tokens)  # ceil-div

    @property
    def live_pages(self) -> int:
        return self._live_pages

    @property
    def live_tokens(self) -> int:
        return self._live_tokens

    @property
    def live_seqs(self) -> int:
        return len(self._tables)

    @property
    def free_pages(self) -> int:
        """Whole pages the pool could still grant right now."""
        return self.pool.free_bytes // self.page_bytes

    def can_admit(self, tokens: int) -> bool:
        """Whether a new sequence of ``tokens`` would fit right now."""
        return self._pages_for(tokens) <= self.free_pages

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def page_table(self, seq_id: int) -> tuple[int, ...]:
        """The sequence's page-map slots, in allocation order — the
        (virtual) block table a real paged-attention kernel would index
        through."""
        table = self._tables.get(seq_id, ())
        return tuple(slot for alloc in table for slot in alloc.pages)

    # -- allocation --------------------------------------------------------

    def allocate(self, seq_id: int, tokens: int) -> bool:
        """Claim pages for a new sequence holding ``tokens`` (a prompt
        after prefill).  All-or-nothing: on exhaustion nothing is held
        and the call returns ``False`` (caller preempts or queues)."""
        if seq_id in self._tables:
            raise ReproError(f"sequence {seq_id} already has a page table")
        need = self._pages_for(tokens)
        if need > self.free_pages:
            self.failed_grows += 1
            return False
        self._tables[seq_id] = [self._new_page() for _ in range(need)]
        self._tokens[seq_id] = int(tokens)
        self._credit(need, int(tokens))
        return True

    def grow(self, seq_id: int, tokens: int = 1) -> bool:
        """Extend a sequence by ``tokens``.  Only allocates when the
        append crosses a page boundary; returns
        ``False`` on exhaustion with the sequence unchanged."""
        extra = self.pages_to_grow(seq_id, tokens)
        if extra > self.free_pages:
            self.failed_grows += 1
            return False
        self._tables[seq_id].extend(self._new_page() for _ in range(extra))
        self._tokens[seq_id] += int(tokens)
        self._credit(extra, int(tokens))
        return True

    def step(self, seq_ids) -> None:
        """One decode iteration: grant each of ``seq_ids`` (distinct,
        live sequences) one token.

        Equivalent to :meth:`grow` on each id in order — a page is
        allocated exactly where a sequence's last page is full, in the
        same order — but with one capacity check up front and one peak
        update at the end (pages never decrease within a step, so the
        final state is the only one the peak can record).  The caller
        has already made room (:meth:`pages_for_step` against
        :attr:`free_pages`), so running short here is an accounting
        bug and raises."""
        full = self._full_last_page(seq_ids)
        if len(full) > self.free_pages:
            raise ReproError("KV grow failed after capacity check — "
                             "page accounting is inconsistent")
        tables = self._tables
        for seq_id in full:
            tables[seq_id].append(self._new_page())
        tokens = self._tokens
        for seq_id in seq_ids:
            tokens[seq_id] += 1
        self._credit(len(full), len(seq_ids))

    def _new_page(self) -> Allocation:
        return self.pool.allocate(self.page_bytes, tag=self.tag)

    def _credit(self, pages: int, tokens: int) -> None:
        """Add newly granted pages and tokens to the live counters, then
        do the high-water bookkeeping: page count and, *at* the page
        peak, how full those pages were (the report's
        internal-fragmentation number)."""
        self._live_pages += pages
        self._live_tokens += tokens
        pages = self._live_pages
        if pages >= self.peak_pages and pages:
            self.peak_pages = pages
            self.peak_page_utilization = (
                self._live_tokens / (pages * self.page_tokens))

    def pages_to_grow(self, seq_id: int, tokens: int = 1) -> int:
        """Pages a :meth:`grow` of ``tokens`` would need (0 when the
        current last page still has room)."""
        held = self._tokens.get(seq_id)
        if held is None:
            raise ReproError(f"sequence {seq_id} has no page table")
        return max(0, self._pages_for(held + tokens)
                   - len(self._tables[seq_id]))

    def pages_for_step(self, seq_ids) -> int:
        """Pages a :meth:`step` over ``seq_ids`` would need: one per
        sequence whose last page is full — what the scheduler checks
        against :attr:`free_pages` to decide whether an iteration needs
        preemption first."""
        return len(self._full_last_page(seq_ids))

    def _full_last_page(self, seq_ids) -> list[int]:
        """The ids, in order, whose next token starts a new page."""
        tokens = self._tokens
        page_tokens = self.page_tokens
        try:
            return [i for i in seq_ids if not tokens[i] % page_tokens]
        except KeyError as err:
            raise ReproError(
                f"sequence {err.args[0]} has no page table") from None

    def release(self, seq_id: int) -> int:
        """Free a sequence's pages (completion, preemption, eviction);
        returns how many pages went back to the pool."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            return 0
        self._live_tokens -= self._tokens.pop(seq_id)
        self._live_pages -= len(table)
        for alloc in table:
            self.pool.free(alloc)
        return len(table)

    # -- introspection -----------------------------------------------------

    def fragmentation(self):
        """The pool's page-map snapshot (see
        :meth:`~repro.gpu.memory.MemoryPool.fragmentation`)."""
        return self.pool.fragmentation()

    def utilization(self) -> float:
        """Live tokens over the capacity of the pages holding them —
        internal fragmentation from partial last pages."""
        pages = self._live_pages
        if not pages:
            return 1.0
        return self._live_tokens / (pages * self.page_tokens)

    def audit(self) -> None:
        """Recount every page table and token total and raise if the
        incremental counters drifted from them — so a leak cannot hide
        behind a miscounted total."""
        pages = sum(len(t) for t in self._tables.values())
        tokens = sum(self._tokens.values())
        if (pages, tokens) != (self._live_pages, self._live_tokens):
            raise ReproError(
                f"KV counter drift: tables hold {pages} pages / {tokens} "
                f"tokens, counters say {self._live_pages} / "
                f"{self._live_tokens}")
