"""Static AST linter for ``@cuda.jit`` kernels and stream usage.

The pass reproduces, on the simulator, the checks students get from
``compute-sanitizer`` and code review on real hardware:

* ``SAN-OOB`` — a *grid-derived* index can reach past a global
  (parameter) array's extent.  Launch grids are rounded up, so the last
  block always has threads past the end.
* ``SAN-SHARED-RACE`` — a shared-memory cell is read at a different index
  than it was written, with no ``syncthreads()`` between the phases.
* ``SAN-BARRIER-DIV`` — ``syncthreads()`` is control-dependent on a
  thread-varying predicate: threads that skip the branch never reach
  the barrier and the block deadlocks.
* ``SAN-UNCOALESCED`` — the innermost index of a global access multiplies
  a thread-varying value by a constant stride, so a warp touches
  scattered cache lines instead of one.
* ``SAN-BANK-CONFLICT`` — a shared-memory index uses a stride sharing a
  factor with the 32 banks, serializing warp lanes on the same bank.
* ``SAN-STREAM-HAZARD`` — the same device buffer is passed to kernel
  launches on two different streams with no event dependency or
  synchronization between them.

SAN-OOB and SAN-BARRIER-DIV are proofs: they come from the abstract
interpreter (:mod:`repro.analysis.absint`), which runs each kernel to
a fixpoint over interval + affine domains and reports only what it can
show (see ``docs/sanitizer.md``).  The other kernel rules are
syntactic in the way a linter is: thread-variance is propagated
through straight-line assignments, and loops are unrolled once for the
phase analysis.  That is enough to be exact on the kernel shapes the
course teaches (elementwise, stencil, tiled reduction/matmul).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cfg import unrolled_schedule
from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report

# device-buffer producers recognized by the stream-hazard scan
_BUFFER_MAKERS = {"to_device", "device_array"}
_SYNC_ATTRS = {"synchronize", "wait_for", "record"}


def _gcd32(stride: int) -> int:
    return math.gcd(stride, 32)


@dataclass
class _KernelEnv:
    """Per-kernel symbol knowledge built up during the walk."""

    cuda_names: set[str]
    params: set[str] = field(default_factory=set)
    shared: set[str] = field(default_factory=set)
    local: set[str] = field(default_factory=set)
    #: names whose value varies across the threads of a block
    varying: set[str] = field(default_factory=set)


class _KernelLinter:
    """Runs the syntactic intra-kernel rules over one ``@cuda.jit``
    function."""

    def __init__(self, fn: ast.FunctionDef, cuda_names: set[str],
                 filename: str) -> None:
        self.fn = fn
        self.filename = filename
        self.env = _KernelEnv(cuda_names=cuda_names)
        self.env.params = {a.arg for a in fn.args.args}
        self.report = Report()
        self._seen: set[tuple] = set()

    # -- cuda namespace recognition ------------------------------------

    def _is_cuda_attr(self, node: ast.AST, *path: str) -> bool:
        """Match ``cuda.a.b`` attribute chains (any registered alias)."""
        for attr in reversed(path):
            if not (isinstance(node, ast.Attribute) and node.attr == attr):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.env.cuda_names

    def _is_sync_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if self._is_cuda_attr(f, "syncthreads"):
            return True
        return isinstance(f, ast.Name) and f.id == "syncthreads"

    # -- thread variance --------------------------------------------------

    def _varies(self, node: ast.AST) -> bool:
        """Can the expression differ between threads of one block
        (``threadIdx``, ``cuda.grid``, or a name derived from them)?"""
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute):
                if self._is_cuda_attr(n.value, "threadIdx"):
                    return True
            elif isinstance(n, ast.Call) and self._is_cuda_attr(n.func, "grid"):
                return True
            elif isinstance(n, ast.Name) and n.id in self.env.varying:
                return True
        return False

    def _set_varying(self, name: str, varying: bool) -> None:
        if varying:
            self.env.varying.add(name)
        else:
            self.env.varying.discard(name)

    def _record_assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Call) \
                and self._is_cuda_attr(value.func, "grid"):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env.varying.add(elt.id)
            return
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._record_assign(t, v)
            return
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call):
                if self._is_cuda_attr(value.func, "shared", "array"):
                    self.env.shared.add(target.id)
                    self.env.varying.discard(target.id)
                    return
                if self._is_cuda_attr(value.func, "local", "array"):
                    self.env.local.add(target.id)
                    self.env.varying.discard(target.id)
                    return
            self._set_varying(target.id, self._varies(value))

    # -- findings -------------------------------------------------------

    def _emit(self, rule: str, message: str, line: int,
              dedupe_key: tuple) -> None:
        if dedupe_key in self._seen:
            return
        self._seen.add(dedupe_key)
        self.report.add(make_finding(
            rule, message, file=self.filename, line=line,
            context=self.fn.name))

    # -- main walk ------------------------------------------------------

    def run(self) -> Report:
        self._visit_body(self.fn.body)
        self._phase_analysis()
        return self.report

    def _visit_body(self, stmts) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value)
            for t in stmt.targets:
                self._check_expr(t)
            for t in stmt.targets:
                self._record_assign(t, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._check_expr(stmt.value)
            self._check_expr(stmt.target)
            if isinstance(stmt.target, ast.Name) \
                    and self._varies(stmt.value):
                self.env.varying.add(stmt.target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._check_expr(stmt.value)
                self._record_assign(stmt.target, stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._check_expr(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._check_expr(stmt.iter)
            self._for_header(stmt)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._check_expr(stmt.value)
        # other statement kinds carry no kernel semantics we model

    def _for_header(self, stmt: ast.For) -> None:
        """The loop variable varies when a ``range`` bound (or any
        other iterable) does."""
        if not isinstance(stmt.target, ast.Name):
            return
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and it.args:
            varying = any(self._varies(a) for a in it.args)
        else:
            varying = self._varies(it)
        self._set_varying(stmt.target.id, varying)

    # -- expression-level access checks ---------------------------------

    def _check_expr(self, node: ast.AST) -> None:
        if isinstance(node, ast.Subscript):
            self._check_subscript(node)
        for child in ast.iter_child_nodes(node):
            self._check_expr(child)

    def _index_elements(self, node: ast.Subscript) -> list[ast.AST]:
        sl = node.slice
        if isinstance(sl, ast.Tuple):
            return list(sl.elts)
        return [sl]

    def _check_subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.value, ast.Name):
            return
        base = node.value.id
        elements = self._index_elements(node)
        if base in self.env.local:
            return
        if base in self.env.shared:
            self._check_bank_conflict(base, node, elements)
            return
        if base in self.env.params:
            self._check_coalescing(base, node, elements)

    def _const_stride(self, elem: ast.AST) -> int | None:
        """Return c for ``varying * c`` / ``c * varying`` index shapes."""
        if not isinstance(elem, ast.BinOp) or not isinstance(elem.op, ast.Mult):
            return None
        left, right = elem.left, elem.right
        for var, const in ((left, right), (right, left)):
            if isinstance(const, ast.Constant) \
                    and isinstance(const.value, int) \
                    and self._varies(var):
                return const.value
        return None

    def _check_coalescing(self, base: str, node: ast.Subscript,
                          elements) -> None:
        stride = self._const_stride(elements[-1])
        if stride is not None and stride > 1:
            self._emit(
                "SAN-UNCOALESCED",
                f"global access `{base}[... * {stride}]` makes a warp "
                f"touch every {stride}-th element; consecutive threads "
                "should touch consecutive elements",
                node.lineno, ("coalesce", base, node.lineno))

    def _check_bank_conflict(self, base: str, node: ast.Subscript,
                             elements) -> None:
        for elem in elements:
            stride = self._const_stride(elem)
            if stride is not None and stride > 1 and _gcd32(stride) > 1:
                self._emit(
                    "SAN-BANK-CONFLICT",
                    f"shared access `{base}[... * {stride}]` maps "
                    f"{_gcd32(stride)} warp lanes to the same bank "
                    f"({_gcd32(stride)}-way conflict)",
                    node.lineno, ("bank", base, node.lineno))

    # -- shared-memory phase analysis (SAN-SHARED-RACE) -----------------

    def _phase_analysis(self) -> None:
        events = self._events(unrolled_schedule(self.fn.body))
        pending: dict[str, list[tuple[str, int]]] = {}
        for ev in events:
            kind = ev[0]
            if kind == "sync":
                pending.clear()
            elif kind == "read":
                _, name, idx, line = ev
                for widx, wline in pending.get(name, ()):
                    if widx != idx:
                        self._emit(
                            "SAN-SHARED-RACE",
                            f"`{name}[{idx}]` is read without a "
                            "syncthreads() after the write to "
                            f"`{name}[{widx}]` on line {wline}; another "
                            "thread's write may not be visible yet",
                            line, ("race", name, line, wline))
            elif kind == "write":
                _, name, idx, line = ev
                pending.setdefault(name, []).append((idx, line))

    def _events(self, schedule) -> list[tuple]:
        """Map the canonical unrolled schedule (loop bodies repeated so a
        write in iteration N meets the read in N+1, ``if`` arms
        concatenated — see :func:`repro.analysis.cfg.unrolled_schedule`)
        to (sync|read|write) events."""
        out: list[tuple] = []
        for stmt in schedule:
            if isinstance(stmt, ast.Expr) and self._is_sync_call(stmt.value):
                out.append(("sync", stmt.lineno))
            else:
                out.extend(self._stmt_events(stmt))
        return out

    def _stmt_events(self, stmt: ast.stmt) -> list[tuple]:
        reads: list[tuple] = []
        writes: list[tuple] = []
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Subscript) \
                    or not isinstance(n.value, ast.Name) \
                    or n.value.id not in self.env.shared:
                continue
            idx = ast.unparse(n.slice)
            ev = (n.value.id, idx, n.lineno)
            if isinstance(n.ctx, ast.Store):
                writes.append(("write", *ev))
            else:
                reads.append(("read", *ev))
            if isinstance(stmt, ast.AugAssign) and n is stmt.target:
                # `a[i] op= ...` both reads and writes the target cell
                reads.append(("read", *ev))
        return reads + writes


# -- stream-hazard scan (module- or function-level straight-line code) -----

class _StreamScan:
    """Linear scan for same-buffer launches on two streams with no
    intervening event dependency or synchronization."""

    def __init__(self, cuda_names: set[str], filename: str) -> None:
        self.cuda_names = cuda_names
        self.filename = filename
        self.streams: set[str] = set()
        self.buffers: set[str] = set()
        self.last_stream: dict[str, tuple[str, int]] = {}
        self.report = Report()

    def scan(self, stmts) -> Report:
        for stmt in stmts:
            self._stmt(stmt)
        return self.report

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            self._classify_assign(stmt)
        for call in [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]:
            self._call(call)

    def _classify_assign(self, stmt: ast.Assign) -> None:
        func = stmt.value.func
        is_stream = (
            (isinstance(func, ast.Attribute) and func.attr in
             ("stream", "create_stream"))
        )
        is_buffer = (isinstance(func, ast.Attribute)
                     and func.attr in _BUFFER_MAKERS)
        for t in stmt.targets:
            if not isinstance(t, ast.Name):
                continue
            if is_stream:
                self.streams.add(t.id)
            elif is_buffer:
                self.buffers.add(t.id)

    def _call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SYNC_ATTRS:
            # a recorded event / wait / synchronize orders the streams;
            # the coarse reset matches how the labs actually fence
            self.last_stream.clear()
            return
        if not isinstance(func, ast.Subscript):
            return
        stream = self._launch_stream(func)
        line = call.lineno
        for arg in call.args:
            if not isinstance(arg, ast.Name) or arg.id not in self.buffers:
                continue
            prev = self.last_stream.get(arg.id)
            if prev is not None and prev[0] != stream:
                self.report.add(make_finding(
                    "SAN-STREAM-HAZARD",
                    f"buffer `{arg.id}` was enqueued on stream "
                    f"`{prev[0]}` (line {prev[1]}) and is re-enqueued on "
                    f"`{stream}` with no event dependency between them",
                    file=self.filename, line=line, context=arg.id))
            self.last_stream[arg.id] = (stream, line)

    def _launch_stream(self, func: ast.Subscript) -> str:
        sl = func.slice
        if isinstance(sl, ast.Tuple) and len(sl.elts) >= 3:
            third = sl.elts[2]
            if isinstance(third, ast.Name):
                return third.id
            return ast.dump(third)
        return "<default>"


# -- entry points -----------------------------------------------------------

def _is_kernel_def(fn: ast.FunctionDef, cuda_names: set[str]) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "jit" \
                and isinstance(target.value, ast.Name) \
                and target.value.id in cuda_names:
            return True
    return False


def lint_context(ctx) -> Report:
    """Lint every ``@cuda.jit`` kernel (and the stream usage) in one
    shared :class:`repro.analysis.context.AnalysisContext` — the parse
    and the walk already happened; this pass reads the context's index.
    SAN-OOB and SAN-BARRIER-DIV are the abstract interpreter's proofs
    (cached on the context, so the ``absint`` family reuses the same
    run)."""
    from repro.analysis.absint import absint_context

    report = Report()
    filename = ctx.filename
    if ctx.tree is None:
        report.add(ctx.syntax_finding())
        return report
    cuda_names = ctx.cuda_names
    # a stream hazard needs a launch (`kern[grid, block, stream](...)`),
    # so a file without one has nothing for the stream scan to find
    scan_streams = any(isinstance(call.func, ast.Subscript)
                       for call in ctx.nodes_of(ast.Call))
    has_kernels = False
    for node in ctx.nodes_of(ast.FunctionDef):
        if _is_kernel_def(node, cuda_names):
            has_kernels = True
            report.extend(ctx.kernel_lint(node))
        elif scan_streams:
            report.extend(
                _StreamScan(cuda_names, filename).scan(node.body).findings)
    if scan_streams:
        report.extend(
            _StreamScan(cuda_names, filename).scan(ctx.tree.body).findings)
    if has_kernels:
        report.extend(f for f in absint_context(ctx).report.findings
                      if f.rule.startswith("SAN-"))
    return report


def lint_source(source: str, filename: str = "<string>",
                line_offset: int = 0) -> Report:
    """Lint a source string; ``line_offset`` shifts reported lines for
    snippets extracted from a larger file."""
    from repro.analysis.context import AnalysisContext

    return lint_context(AnalysisContext(source, filename=filename,
                                        line_offset=line_offset))


def lint_file(path: str | Path) -> Report:
    path = Path(path)
    return lint_source(path.read_text(), filename=str(path))


def lint_paths(paths) -> Report:
    """Lint files and/or directories (recursing into ``*.py``)."""
    report = Report()
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            report.extend(lint_file(f).findings)
    return report


def lint_kernel(kernel) -> Report:
    """Lint a live kernel: a :class:`repro.jit.cuda.CudaKernel`, a plain
    function, or a source string."""
    import inspect

    if isinstance(kernel, str):
        return lint_source(kernel)
    fn = getattr(kernel, "fn", kernel)
    try:
        lines, start = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<kernel>"
    except (OSError, TypeError):
        raise ValueError(
            f"cannot retrieve source for {fn!r}; pass the source string")
    return lint_source("".join(lines), filename=filename,
                       line_offset=start - 1)
