"""Worklist abstract interpreter over ``@cuda.jit`` kernel bodies.

Where a linter pattern-matches, this pass *computes*: every kernel
body is run to a fixpoint over its per-scope CFG
(:func:`repro.analysis.cfg.build_cfg`) with the domains of
:mod:`repro.analysis.domains` — an interval per value, a symbolic
affine form ``a·tid + b·bid + c`` where one exists, and the set of
affine branch constraints that hold on the current path.  Widening at
loop heads keeps the fixpoint finite; joins at merges keep it sound.

Three results ride the fixpoint:

* **proof-grade SAN-OOB** — each parameter-array subscript is compared
  against the array's extent.  Extents come from *launch sites* in the
  same file (``kern[(n+255)//256, 256](a, x, out)`` binds block/grid
  dims, scalar arguments, and host-side array shapes, so ``x`` and
  ``out`` built from the same ``n`` share an extent); with no visible
  launch each array gets anonymous extent atoms.  A verdict is
  ``safe`` only when ``0 ≤ index`` and ``index ≤ extent-1`` are both
  entailed; ``oob`` needs positive evidence (a grid-varying index with
  no extent-shaped bound on a reachable path); anything else is
  ``unknown`` and stays silent — precision over recall, like every
  pass in the suite.
* **precise SAN-BARRIER-DIV** — a ``syncthreads()`` is divergent only
  when it is control-dependent on a predicate whose *affine* taint is
  thread-varying (an early ``return`` under such a predicate extends
  the divergent region to everything after it).  Cancelled forms are
  the precision win: ``i - cuda.threadIdx.x`` is block-uniform even
  though every syntactic taint walk calls it global.
* the **kernel classifier** (:mod:`repro.analysis.kernelclass`) — the
  per-array access footprints feed the elementwise / stencil /
  reduction / tiled-matmul / divergent-fallback decision and the
  ``VEC-VECTORIZABLE`` / ``VEC-DIVERGENT`` notes.

The SAN-OOB and SAN-BARRIER-DIV findings are the only implementation
of those rules: the ``kernel`` family
(:func:`repro.sanitize.astlint.lint_context`) reports them from this
pass, and the ``absint`` family adds the VEC-* notes.  One run per
context serves both.

Device helper calls resolve through
:func:`repro.analysis.summaries.device_affine_summary` (a pure affine
``return`` is inlined by summary); anything unresolved evaluates to
top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.cfg import build_cfg, scopes
from repro.analysis.domains import (
    INF,
    AbsVal,
    Affine,
    Interval,
    T_BLOCK,
    T_GLOBAL,
    T_NONE,
    T_THREAD,
    affine_taint,
    entails_le_zero,
)
from repro.analysis.kernelclass import (
    Access,
    KernelClass,
    KernelFacts,
    class_finding,
    classify,
)
from repro.analysis.rules import make_finding
from repro.sanitize.astlint import _is_kernel_def
from repro.sanitize.findings import Report

_THREAD_VARYING = (T_THREAD, T_GLOBAL)

#: joins at one block before widening kicks in
_WIDEN_AFTER = 3

#: fixpoint safety valve (blocks are revisited at most this many times)
_MAX_VISITS = 40

#: launch environments analyzed per kernel (deduped, first-seen order)
_MAX_ENVS = 4

_AXES = "xyz"

_SHAPE_CALLS = {"ones", "zeros", "empty", "full", "device_array",
                "random", "standard_normal", "rand"}


# ---------------------------------------------------------------------------
# Launch environments
# ---------------------------------------------------------------------------


@dataclass
class LaunchEnv:
    """One launch configuration a kernel is analyzed under."""

    block: tuple = (None, None, None)   # per-axis dims, None = unknown
    grid: tuple = (None, None, None)
    scalars: dict = field(default_factory=dict)   # param -> Affine
    extents: dict = field(default_factory=dict)   # param -> tuple
    line: int = 0                                  # launch site, 0 = none

    def key(self):
        return (self.block, self.grid,
                tuple(sorted(self.scalars.items())),
                tuple(sorted((p, e) for p, e in self.extents.items())))

    def atom_ranges(self) -> dict:
        ranges: dict = {}
        for axis, ax in enumerate(_AXES):
            b, g = self.block[axis], self.grid[axis]
            ranges[f"tid.{ax}"] = (Interval(0, b - 1) if b
                                   else Interval(0, INF))
            ranges[f"bid.{ax}"] = (Interval(0, g - 1) if g
                                   else Interval(0, INF))
            ranges[f"gidx.{ax}"] = (Interval(0, g * b - 1) if b and g
                                    else Interval(0, INF))
            ranges[f"bdim.{ax}"] = (Interval.const(b) if b
                                    else Interval(1, INF))
            ranges[f"gdim.{ax}"] = (Interval.const(g) if g
                                    else Interval(1, INF))
        return ranges

    def extent_of(self, param: str, axis: int) -> Affine:
        """The extent the subscript on ``axis`` must stay under —
        launch-derived when known, an anonymous atom otherwise (the
        atom still unifies a guard with an access on the same array)."""
        exts = self.extents.get(param)
        if exts is not None and axis < len(exts) \
                and exts[axis] is not None:
            return exts[axis]
        return Affine.atom(f"ext:{param}:{axis}")

    def size_of(self, param: str) -> Affine | None:
        """``param.size`` — exact for known 1-D / constant shapes; with
        no launch in sight the first-axis atom stands in (the kernels
        that guard on ``.size`` index one axis)."""
        exts = self.extents.get(param)
        if exts is None:
            return Affine.atom(f"ext:{param}:0")
        if len(exts) == 1 and exts[0] is not None:
            return exts[0]
        if all(e is not None and e.is_const for e in exts):
            prod = 1
            for e in exts:
                prod *= e.const
            return Affine.constant(prod)
        return None


def _host_affine(expr, assigns, depth: int = 0) -> Affine | None:
    """Host-side expression -> affine over ``host:*`` atoms (straight-
    line name lookups, const folding through ``//`` and ``<<``)."""
    if depth > 8:
        return None
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool) or not isinstance(expr.value, int):
            return None
        return Affine.constant(expr.value)
    if isinstance(expr, ast.Name):
        value = assigns.get(expr.id)
        if value is not None:
            sub = _host_affine(value, assigns, depth + 1)
            if sub is not None:
                return sub
        return Affine.atom(f"host:{expr.id}")
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        sub = _host_affine(expr.operand, assigns, depth + 1)
        return -sub if sub is not None else None
    if isinstance(expr, ast.BinOp):
        left = _host_affine(expr.left, assigns, depth + 1)
        right = _host_affine(expr.right, assigns, depth + 1)
        if left is None or right is None:
            return None
        if isinstance(expr.op, ast.Add):
            return left + right
        if isinstance(expr.op, ast.Sub):
            return left - right
        if isinstance(expr.op, ast.Mult):
            if right.is_const:
                return left.scale(right.const)
            if left.is_const:
                return right.scale(left.const)
            return None
        if isinstance(expr.op, ast.FloorDiv) and right.is_const \
                and right.const > 0:
            if left.is_const:
                return Affine.constant(left.const // right.const)
            return left.exact_floordiv(right.const)
        if isinstance(expr.op, ast.LShift) and left.is_const \
                and right.is_const and 0 <= right.const < 64:
            return Affine.constant(left.const << right.const)
    return None


def _host_shape(expr, assigns, depth: int = 0):
    """Host-side array expression -> tuple of per-axis extents
    (``Affine | None`` each), or ``None`` when nothing is known."""
    if depth > 8:
        return None
    if isinstance(expr, ast.Name):
        value = assigns.get(expr.id)
        if value is not None:
            return _host_shape(value, assigns, depth + 1)
        return None
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    attr = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if attr is None:
        return None
    if attr == "to_device" and expr.args:
        return _host_shape(expr.args[0], assigns, depth + 1)
    if attr == "astype" and isinstance(func, ast.Attribute):
        return _host_shape(func.value, assigns, depth + 1)
    if attr == "arange" and len(expr.args) == 1:
        return (_host_affine(expr.args[0], assigns, depth + 1),)
    if attr in _SHAPE_CALLS and expr.args:
        shape = expr.args[0]
        if isinstance(shape, ast.Tuple):
            return tuple(_host_affine(e, assigns, depth + 1)
                         for e in shape.elts)
        return (_host_affine(shape, assigns, depth + 1),)
    return None


def _dims(spec, assigns) -> tuple:
    """A grid/block spec expression -> per-axis constant dims."""
    if isinstance(spec, ast.Tuple):
        out = []
        for e in spec.elts[:3]:
            aff = _host_affine(e, assigns)
            out.append(aff.const if aff is not None and aff.is_const
                       and aff.const > 0 else None)
        while len(out) < 3:
            out.append(1)
        return tuple(out)
    aff = _host_affine(spec, assigns)
    if aff is not None and aff.is_const and aff.const > 0:
        return (aff.const, 1, 1)
    return (None, 1, 1)


def _scan_launches(ctx, kernels: dict) -> dict:
    """Find every ``kern[grid, block](args)`` launch in the file and
    derive a :class:`LaunchEnv` per site from the host-side context."""
    envs: dict = {name: [] for name in kernels}
    for _scope, body in scopes(ctx):
        assigns: dict = {}

        def visit(stmts):
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                # only this statement's own expressions — nested
                # statement lists are visited by the recursion below,
                # with the assignments seen up to that point recorded
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                        continue
                    for node in ast.walk(child):
                        if isinstance(node, ast.Call) \
                                and isinstance(node.func, ast.Subscript) \
                                and isinstance(node.func.value, ast.Name) \
                                and node.func.value.id in kernels:
                            env = _launch_env(
                                kernels[node.func.value.id],
                                node, dict(assigns))
                            if env is not None:
                                envs[node.func.value.id].append(env)
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name):
                    assigns[stmt.targets[0].id] = stmt.value
                for sub in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, sub, None)
                    if inner:
                        visit(list(inner))
                for handler in getattr(stmt, "handlers", ()):
                    visit(list(handler.body))

        visit(body)
    return envs


def _launch_env(fn: ast.FunctionDef, call: ast.Call,
                assigns: dict) -> LaunchEnv | None:
    spec = call.func.slice
    if not (isinstance(spec, ast.Tuple) and len(spec.elts) >= 2):
        return None
    grid = _dims(spec.elts[0], assigns)
    block = _dims(spec.elts[1], assigns)
    params = [a.arg for a in fn.args.args]
    scalars: dict = {}
    extents: dict = {}
    if len(call.args) == len(params) and not call.keywords:
        for p, arg in zip(params, call.args):
            shape = _host_shape(arg, assigns)
            if shape is not None:
                extents[p] = shape
                continue
            aff = _host_affine(arg, assigns)
            if aff is not None:
                scalars[p] = aff
    return LaunchEnv(block=block, grid=grid, scalars=scalars,
                     extents=extents, line=call.lineno)


# ---------------------------------------------------------------------------
# Abstract state
# ---------------------------------------------------------------------------


class _State:
    """Variable environment + path constraints (each ``f ≤ 0``)."""

    __slots__ = ("vars", "cons")

    def __init__(self, vars=None, cons=frozenset()):
        self.vars = dict(vars) if vars else {}
        self.cons = cons

    def copy(self) -> "_State":
        return _State(self.vars, self.cons)

    def join(self, other: "_State") -> "_State":
        out = {}
        for name in self.vars.keys() & other.vars.keys():
            out[name] = self.vars[name].join(other.vars[name])
        return _State(out, self.cons & other.cons)

    def widen(self, newer: "_State") -> "_State":
        out = {}
        for name in self.vars.keys() & newer.vars.keys():
            out[name] = self.vars[name].widen(newer.vars[name])
        return _State(out, self.cons & newer.cons)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _State) and self.vars == other.vars
                and self.cons == other.cons)

    def __hash__(self):  # pragma: no cover - states are not hashed
        return 0


_NEGATE = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
           ast.GtE: ast.Lt, ast.NotEq: ast.Eq}


# ---------------------------------------------------------------------------
# The per-kernel interpreter
# ---------------------------------------------------------------------------


class _KernelInterp:
    """Fixpoint + check pass for one kernel under one launch env."""

    def __init__(self, ctx, fn: ast.FunctionDef, helpers: dict) -> None:
        self.ctx = ctx
        self.fn = fn
        self.helpers = helpers
        self.cuda_names = ctx.cuda_names
        self.params = [a.arg for a in fn.args.args]
        self.shared: dict = {}         # name -> dims tuple | None
        self.local: set = set()
        # joined across envs by the caller:
        self.test_taint: dict = {}     # id(stmt) -> taint of its test
        self.verdicts: dict = {}       # access key -> "safe"|"oob"|"unknown"
        self.oob_detail: dict = {}     # access key -> (line, base, why)
        self.accesses: dict = {}       # access key -> Access
        self._summary_cache: dict = {}

    # -- one environment ------------------------------------------------

    def run_env(self, env: LaunchEnv) -> None:
        self.env = env
        self.atom_ranges = env.atom_ranges()
        cfg = build_cfg(self.fn.body)
        init = _State()
        for p, aff in env.scalars.items():
            init.vars[p] = self._mk(aff, Interval.top(), T_NONE)
        in_states = {cfg.entry.id: init}
        visits: dict = {}
        work = [cfg.entry]
        queued = {cfg.entry.id}
        while work:
            block = work.pop(0)
            queued.discard(block.id)
            state = in_states.get(block.id)
            if state is None:
                continue
            for succ, out in self._flow_block(block, state, check=False):
                old = in_states.get(succ.id)
                new = out if old is None else old.join(out)
                n = visits.get(succ.id, 0) + 1
                visits[succ.id] = n
                if n > _MAX_VISITS:
                    continue
                if old is not None and n > _WIDEN_AFTER:
                    new = old.widen(new)
                if old is None or new != old:
                    in_states[succ.id] = new
                    if succ.id not in queued:
                        queued.add(succ.id)
                        work.append(succ)
        # check pass: one transfer per block from its fixed entry state
        for block in cfg.blocks:
            state = in_states.get(block.id)
            if state is not None:
                self._flow_block(block, state, check=True)

    # -- block transfer -------------------------------------------------

    def _flow_block(self, block, state: _State, check: bool):
        state = state.copy()
        stmts = block.stmts
        control = stmts[-1] if stmts and isinstance(
            stmts[-1], (ast.If, ast.For, ast.While, ast.Try,
                        ast.With)) else None
        for stmt in (stmts[:-1] if control is not None else stmts):
            state = self._stmt(stmt, state, check)
        succs = block.succs
        if isinstance(control, ast.If):
            val = self._eval(control.test, state, check)
            if check:
                self._note_test(control, val.taint)
            out = []
            if succs:
                out.append((succs[0],
                            self._refine(state, control.test, True)))
            if len(succs) > 1:
                out.append((succs[1],
                            self._refine(state, control.test, False)))
            return out
        if isinstance(control, ast.While):
            val = self._eval(control.test, state, check)
            if check:
                self._note_test(control, val.taint)
            out = []
            if succs:
                out.append((succs[0],
                            self._refine(state, control.test, False)))
            if len(succs) > 1:
                out.append((succs[1],
                            self._refine(state, control.test, True)))
            return out
        if isinstance(control, ast.For):
            rng, taint = self._loop_range(control, state, check)
            if check:
                self._note_test(control, taint)
            out = []
            if succs:
                after = state.copy()
                if isinstance(control.target, ast.Name):
                    prev = state.vars.get(control.target.id)
                    after.vars[control.target.id] = (
                        rng.join(prev) if prev is not None else rng)
                out.append((succs[0], after))
            if len(succs) > 1:
                body = state.copy()
                self._bind_target(control.target, rng, body)
                body = _State(body.vars, body.cons | self._range_cons(
                    control, rng))
                out.append((succs[1], body))
            return out
        if isinstance(control, (ast.Try, ast.With)):
            if isinstance(control, (ast.With,)) and check:
                for item in control.items:
                    self._eval(item.context_expr, state, check)
            return [(succ, state.copy()) for succ in succs]
        return [(succ, state.copy()) for succ in succs]

    def _note_test(self, stmt, taint: int) -> None:
        key = id(stmt)
        self.test_taint[key] = max(self.test_taint.get(key, T_NONE),
                                   taint)

    # -- loop headers ---------------------------------------------------

    def _loop_range(self, stmt: ast.For, state: _State, check: bool):
        """Abstract value of the ``for`` target plus the iterable's
        taint (thread-varying trip counts make the body divergent)."""
        it = stmt.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and it.args:
            vals = [self._eval(a, state, check) for a in it.args]
            taint = max((v.taint for v in vals), default=T_NONE)
            if len(vals) == 1:
                start, stop = AbsVal.const(0), vals[0]
            else:
                start, stop = vals[0], vals[1]
            atom = Affine.atom(f"it:{stmt.lineno}")
            lo = start.interval.lo
            hi = stop.interval.hi
            hi = hi if hi in (INF,) else hi - 1
            self.atom_ranges[f"it:{stmt.lineno}"] = Interval(lo, hi)
            self._loop_bounds = (start, stop)
            return self._mk(atom, Interval(lo, hi), taint), taint
        val = self._eval(it, state, check)
        self._loop_bounds = None
        return AbsVal.top(val.taint), val.taint

    def _range_cons(self, stmt: ast.For, rng: AbsVal) -> frozenset:
        """Constraints the range bounds put on the iterator atom."""
        bounds = getattr(self, "_loop_bounds", None)
        if bounds is None or rng.affine is None:
            return frozenset()
        start, stop = bounds
        cons = set()
        if start.affine is not None:
            cons.add(start.affine - rng.affine)          # start - it <= 0
        if stop.affine is not None:
            cons.add(rng.affine - stop.affine
                     + Affine.constant(1))               # it <= stop - 1
        return frozenset(cons)

    # -- statements -----------------------------------------------------

    def _stmt(self, stmt: ast.stmt, state: _State, check: bool) -> _State:
        if isinstance(stmt, ast.Assign):
            val = self._eval(stmt.value, state, check)
            for target in stmt.targets:
                self._assign(target, stmt.value, val, state, check)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            val = self._eval(stmt.value, state, check)
            self._assign(stmt.target, stmt.value, val, state, check)
        elif isinstance(stmt, ast.AugAssign):
            val = self._eval(stmt.value, state, check)
            if isinstance(stmt.target, ast.Name):
                old = self._name_val(stmt.target.id, state)
                state.vars[stmt.target.id] = self._binop(
                    stmt.op, old, val)
            elif isinstance(stmt.target, ast.Subscript):
                self._subscript(stmt.target, state, check, store=True)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state, check)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state, check)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state, check)
            state = self._refine(state, stmt.test, True)
        return state

    def _assign(self, target, value_node, val: AbsVal, state: _State,
                check: bool) -> None:
        if isinstance(target, ast.Tuple):
            if isinstance(value_node, ast.Call) \
                    and self._is_cuda_attr(value_node.func, "grid"):
                for axis, elt in enumerate(target.elts):
                    if isinstance(elt, ast.Name) and axis < 3:
                        state.vars[elt.id] = self._grid_val(axis)
                return
            if isinstance(value_node, ast.Tuple) \
                    and len(value_node.elts) == len(target.elts):
                for t, v in zip(target.elts, value_node.elts):
                    self._assign(t, v, self._eval(v, state, False),
                                 state, check)
                return
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    state.vars[elt.id] = AbsVal.top(val.taint)
            return
        if isinstance(target, ast.Name):
            if isinstance(value_node, ast.Call):
                if self._is_cuda_attr(value_node.func, "shared", "array"):
                    self.shared[target.id] = self._array_dims(value_node)
                    state.vars[target.id] = AbsVal.top(T_NONE)
                    return
                if self._is_cuda_attr(value_node.func, "local", "array"):
                    self.local.add(target.id)
                    state.vars[target.id] = AbsVal.top(T_NONE)
                    return
            state.vars[target.id] = val
            return
        if isinstance(target, ast.Subscript):
            self._subscript(target, state, check, store=True)

    def _bind_target(self, target, val: AbsVal, state: _State) -> None:
        if isinstance(target, ast.Name):
            state.vars[target.id] = val
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    state.vars[elt.id] = AbsVal.top(val.taint)

    def _array_dims(self, call: ast.Call):
        if not call.args:
            return None
        shape = call.args[0]
        if isinstance(shape, ast.Constant) \
                and isinstance(shape.value, int):
            return (shape.value,)
        if isinstance(shape, ast.Tuple) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, int)
                for e in shape.elts):
            return tuple(e.value for e in shape.elts)
        return None

    # -- expressions ----------------------------------------------------

    def _mk(self, affine: Affine | None, interval: Interval,
            taint: int) -> AbsVal:
        if affine is not None:
            derived = self._interval_of(affine)
            met = interval.meet(derived)
            return AbsVal(affine, derived if met.is_empty else met,
                          affine_taint(affine))
        return AbsVal(None, interval, taint)

    def _interval_of(self, form: Affine) -> Interval:
        out = Interval.const(form.const)
        for atom, coeff in form.coeffs:
            rng = self.atom_ranges.get(atom, Interval.top())
            out = out + rng * Interval.const(coeff)
        return out

    def _name_val(self, name: str, state: _State) -> AbsVal:
        val = state.vars.get(name)
        if val is not None:
            return val
        if name in self.params:
            aff = self.env.scalars.get(name)
            if aff is not None:
                return self._mk(aff, Interval.top(), T_NONE)
            return AbsVal(None, Interval.top(), T_NONE)
        return AbsVal(None, Interval.top(), T_NONE)

    def _is_cuda_attr(self, node, *path) -> bool:
        for attr in reversed(path):
            if not (isinstance(node, ast.Attribute)
                    and node.attr == attr):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.cuda_names

    def _grid_val(self, axis: int) -> AbsVal:
        ax = _AXES[axis]
        bdim = self.env.block[axis]
        if bdim:
            form = Affine.make({f"bid.{ax}": bdim, f"tid.{ax}": 1})
        else:
            form = Affine.atom(f"gidx.{ax}")
        return self._mk(form, Interval.top(), T_GLOBAL)

    def _eval(self, node, state: _State, check: bool) -> AbsVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbsVal.const(int(node.value))
            if isinstance(node.value, int):
                return AbsVal.const(node.value)
            return AbsVal(None, Interval.top(), T_NONE)
        if isinstance(node, ast.Name):
            return self._name_val(node.id, state)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, state, check)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, state, check)
            right = self._eval(node.right, state, check)
            return self._binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand, state, check)
            if isinstance(node.op, ast.USub):
                return self._mk(
                    -val.affine if val.affine is not None else None,
                    -val.interval, val.taint)
            return AbsVal(None, Interval.top(), val.taint)
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, state, check)
            body = self._eval(node.body,
                              self._refine(state, node.test, True),
                              check)
            orelse = self._eval(node.orelse,
                                self._refine(state, node.test, False),
                                check)
            joined = body.join(orelse)
            return AbsVal(joined.affine, joined.interval,
                          max(joined.taint, test.taint))
        if isinstance(node, ast.Subscript):
            return self._subscript(node, state, check, store=False)
        if isinstance(node, ast.Call):
            return self._call(node, state, check)
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            taint = T_NONE
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    taint = max(taint,
                                self._eval(child, state, check).taint)
            return AbsVal(None, Interval(0, 1), taint)
        taint = T_NONE
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taint = max(taint, self._eval(child, state, check).taint)
        return AbsVal(None, Interval.top(), taint)

    def _attribute(self, node: ast.Attribute, state: _State,
                   check: bool) -> AbsVal:
        if node.attr in _AXES:
            base = node.value
            if self._is_cuda_attr(base, "threadIdx"):
                return self._mk(Affine.atom(f"tid.{node.attr}"),
                                Interval.top(), T_THREAD)
            if self._is_cuda_attr(base, "blockIdx"):
                return self._mk(Affine.atom(f"bid.{node.attr}"),
                                Interval.top(), T_BLOCK)
            if self._is_cuda_attr(base, "blockDim"):
                axis = _AXES.index(node.attr)
                b = self.env.block[axis]
                return (AbsVal.const(b) if b else
                        self._mk(Affine.atom(f"bdim.{node.attr}"),
                                 Interval(1, INF), T_NONE))
            if self._is_cuda_attr(base, "gridDim"):
                axis = _AXES.index(node.attr)
                g = self.env.grid[axis]
                return (AbsVal.const(g) if g else
                        self._mk(Affine.atom(f"gdim.{node.attr}"),
                                 Interval(1, INF), T_NONE))
        if node.attr == "size" and isinstance(node.value, ast.Name):
            name = node.value.id
            if name in self.params and name not in self.shared \
                    and name not in self.local:
                size = self.env.size_of(name)
                if size is not None:
                    return self._mk(size, Interval(0, INF), T_NONE)
                return AbsVal(None, Interval(0, INF), T_NONE)
            dims = self.shared.get(name)
            if dims:
                prod = 1
                for d in dims:
                    prod *= d
                return AbsVal.const(prod)
        val = self._eval(node.value, state, check)
        return AbsVal(None, Interval.top(), val.taint)

    def _shape_extent(self, node: ast.Subscript) -> AbsVal | None:
        """``arr.shape[k]`` -> the extent affine for axis ``k``."""
        base = node.value
        if not (isinstance(base, ast.Attribute) and base.attr == "shape"
                and isinstance(base.value, ast.Name)):
            return None
        if not (isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)):
            return None
        name, axis = base.value.id, node.slice.value
        dims = self.shared.get(name)
        if dims and axis < len(dims):
            return AbsVal.const(dims[axis])
        if name in self.params:
            return self._mk(self.env.extent_of(name, axis),
                            Interval(0, INF), T_NONE)
        return None

    def _binop(self, op, left: AbsVal, right: AbsVal) -> AbsVal:
        taint = max(left.taint, right.taint)
        la, ra = left.affine, right.affine
        if isinstance(op, ast.Add):
            aff = la + ra if la is not None and ra is not None else None
            return self._mk(aff, left.interval + right.interval, taint)
        if isinstance(op, ast.Sub):
            aff = la - ra if la is not None and ra is not None else None
            return self._mk(aff, left.interval - right.interval, taint)
        if isinstance(op, ast.Mult):
            aff = None
            if la is not None and ra is not None:
                if ra.is_const:
                    aff = la.scale(ra.const)
                elif la.is_const:
                    aff = ra.scale(la.const)
            return self._mk(aff, left.interval * right.interval, taint)
        if isinstance(op, ast.FloorDiv) and ra is not None \
                and ra.is_const and ra.const > 0:
            aff = la.exact_floordiv(ra.const) if la is not None else None
            return self._mk(aff,
                            left.interval.floordiv_const(ra.const),
                            taint)
        if isinstance(op, ast.Mod) and ra is not None and ra.is_const \
                and ra.const > 0:
            return self._mk(None, left.interval.mod_const(ra.const),
                            taint)
        if isinstance(op, ast.LShift) and la is not None \
                and ra is not None and la.is_const and ra.is_const \
                and 0 <= ra.const < 64:
            return AbsVal.const(la.const << ra.const)
        return AbsVal(None, Interval.top(), taint)

    def _call(self, node: ast.Call, state: _State, check: bool) -> AbsVal:
        func = node.func
        if self._is_cuda_attr(func, "grid"):
            return self._grid_val(0)
        if self._is_cuda_attr(func, "gridsize"):
            ax = self.env.grid[0], self.env.block[0]
            if all(ax):
                return AbsVal.const(ax[0] * ax[1])
            return AbsVal(None, Interval(1, INF), T_NONE)
        if self._is_cuda_attr(func, "syncthreads"):
            return AbsVal(None, Interval.top(), T_NONE)
        args = [self._eval(a, state, check) for a in node.args]
        arg_taint = max((a.taint for a in args), default=T_NONE)
        if isinstance(func, ast.Name):
            if func.id in ("min", "max") and args:
                lo = (min if func.id == "min" else max)(
                    a.interval.lo for a in args)
                hi = (min if func.id == "min" else max)(
                    a.interval.hi for a in args)
                return AbsVal(None, Interval(lo, hi), arg_taint)
            if func.id == "abs" and len(args) == 1:
                iv = args[0].interval
                lo = 0 if iv.lo < 0 else iv.lo
                hi = max(abs(iv.lo), abs(iv.hi)) \
                    if iv.hi not in (INF,) and iv.lo > -INF else INF
                return AbsVal(None, Interval(lo, hi), arg_taint)
            if func.id in ("int", "len") and len(args) == 1:
                return AbsVal(None, args[0].interval, arg_taint)
            helper = self.helpers.get(func.id)
            if helper is not None:
                return self._helper_call(helper, args, arg_taint)
        # unresolved call: top value, argument-joined taint
        return AbsVal(None, Interval.top(), arg_taint)

    def _helper_call(self, helper: ast.FunctionDef, args, arg_taint):
        """Inline a device helper by its affine summary; anything the
        summary cannot express evaluates to top."""
        from repro.analysis.summaries import device_affine_summary

        key = id(helper)
        if key not in self._summary_cache:
            self._summary_cache[key] = device_affine_summary(helper)
        summary = self._summary_cache[key]
        if summary is None:
            return AbsVal(None, Interval.top(), arg_taint)
        coeffs, const = summary
        params = [a.arg for a in helper.args.args]
        if len(args) != len(params):
            return AbsVal(None, Interval.top(), arg_taint)
        affine = Affine.constant(const)
        interval = Interval.const(const)
        taint = T_NONE
        exact = True
        for p, av in zip(params, args):
            c = coeffs.get(p, 0)
            if not c:
                continue
            taint = max(taint, av.taint)
            interval = interval + av.interval * Interval.const(c)
            if exact and av.affine is not None:
                affine = affine + av.affine.scale(c)
            else:
                exact = False
        return self._mk(affine if exact else None, interval, taint)

    # -- subscripts and the OOB proof -----------------------------------

    def _subscript(self, node: ast.Subscript, state: _State,
                   check: bool, store: bool) -> AbsVal:
        shape = self._shape_extent(node)
        if shape is not None:
            return shape
        if not isinstance(node.value, ast.Name):
            self._eval(node.value, state, check)
            idx = self._eval(node.slice, state, check)
            return AbsVal(None, Interval.top(), idx.taint)
        base = node.value.id
        elems = (list(node.slice.elts)
                 if isinstance(node.slice, ast.Tuple) else [node.slice])
        vals = [self._eval(e, state, check) for e in elems]
        taint = max((v.taint for v in vals), default=T_NONE)
        if base in self.local or base in self.shared:
            return AbsVal(None, Interval.top(), taint)
        if base in self.params and check:
            self._check_access(base, node, vals, state, store)
        return AbsVal(None, Interval.top(), taint)

    def _check_access(self, base: str, node: ast.Subscript, vals,
                      state: _State, store: bool) -> None:
        key = (node.lineno, node.col_offset, base, store)
        verdict = "safe"
        why = ""
        axes = []
        for axis, val in enumerate(vals):
            ext = self.env.extent_of(base, axis)
            v, w = self._axis_verdict(val, ext, state)
            if v == "oob" or (v == "unknown" and verdict != "oob"):
                verdict, why = (v, w) if v != "unknown" or not why \
                    else (v, why)
            if val.affine is not None:
                base_form = Affine(val.affine.coeffs, 0)
                axes.append((base_form.render(), val.affine.const))
            else:
                axes.append((None, None))
        prev = self.verdicts.get(key)
        rank = {"safe": 0, "unknown": 1, "oob": 2}
        if prev is None or rank[verdict] > rank[prev]:
            self.verdicts[key] = verdict
            if verdict == "oob":
                self.oob_detail[key] = (node.lineno, base, why)
        if key not in self.accesses:
            self.accesses[key] = Access(
                array=base, write=store, line=node.lineno,
                axes=tuple(axes))

    def _axis_verdict(self, val: AbsVal, ext: Affine | None,
                      state: _State):
        """(verdict, why) for one subscript axis against one extent."""
        aff = val.affine
        safe_low = val.interval.lo >= 0 or (
            aff is not None
            and entails_le_zero(-aff, state.cons, self._interval_of))
        safe_high = False
        if ext is not None and aff is not None:
            need = aff - ext + Affine.constant(1)     # idx - ext + 1 <= 0
            safe_high = entails_le_zero(need, state.cons,
                                        self._interval_of)
        if not safe_high and ext is not None and ext.is_const \
                and val.interval.hi <= ext.const - 1:
            safe_high = True
        if safe_low and safe_high:
            return "safe", ""
        if aff is None or affine_taint(aff) != T_GLOBAL:
            return "unknown", ""
        grid_part = {a for a in aff.atoms()
                     if a.split(".")[0].split(":")[0]
                     in ("tid", "bid", "gidx", "it")}
        if not safe_low and val.interval.lo < 0 \
                and not self._bounded(-aff, grid_part, state):
            return "oob", ("can be negative (reaches "
                           f"{val.interval.lo:.0f})")
        ext_hi = ext.const - 1 if ext is not None and ext.is_const \
            else None
        overruns = val.interval.hi == INF or (
            ext_hi is not None and val.interval.hi > ext_hi)
        if not safe_high and overruns \
                and not self._bounded(aff, grid_part, state):
            return "oob", "has no extent-shaped upper bound"
        return "unknown", ""

    def _bounded(self, form: Affine, grid_atoms, state: _State) -> bool:
        """Is the grid-varying part of ``form`` bounded by *some*
        constraint (even one we cannot relate to this extent)?  Then
        the access is merely unknown, not positively out of bounds."""
        for f in state.cons:
            diff = form - f
            if not any(a in grid_atoms for a in diff.atoms()):
                return True
        return False

    # -- branch refinement ----------------------------------------------

    def _refine(self, state: _State, test, truth: bool) -> _State:
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and truth:
                for v in test.values:
                    state = self._refine(state, v, True)
            elif isinstance(test.op, ast.Or) and not truth:
                for v in test.values:
                    state = self._refine(state, v, False)
            return state
        if isinstance(test, ast.UnaryOp) \
                and isinstance(test.op, ast.Not):
            return self._refine(state, test.operand, not truth)
        if not isinstance(test, ast.Compare):
            return state
        terms = [test.left] + list(test.comparators)
        pairs = list(zip(terms[:-1], test.ops, terms[1:]))
        if truth:
            for a, op, b in pairs:
                state = self._refine_cmp(state, a, type(op), b)
        elif len(pairs) == 1:
            a, op, b = pairs[0]
            neg = _NEGATE.get(type(op))
            if neg is not None:
                state = self._refine_cmp(state, a, neg, b)
        return state

    def _refine_cmp(self, state: _State, a, op_type, b) -> _State:
        va = self._eval(a, state, False)
        vb = self._eval(b, state, False)
        forms = []
        one = Affine.constant(1)
        if va.affine is not None and vb.affine is not None:
            d = va.affine - vb.affine
            if op_type is ast.Lt:
                forms.append(d + one)
            elif op_type is ast.LtE:
                forms.append(d)
            elif op_type is ast.Gt:
                forms.append(-d + one)
            elif op_type is ast.GtE:
                forms.append(-d)
            elif op_type is ast.Eq:
                forms.extend((d, -d))
        state = _State(state.vars, state.cons | frozenset(forms))
        self._narrow(state, a, op_type, vb.interval)
        inverse = {ast.Lt: ast.Gt, ast.LtE: ast.GtE, ast.Gt: ast.Lt,
                   ast.GtE: ast.LtE, ast.Eq: ast.Eq}.get(op_type)
        if inverse is not None:
            self._narrow(state, b, inverse, va.interval)
        return state

    def _narrow(self, state: _State, expr, op_type,
                other: Interval) -> None:
        if not isinstance(expr, ast.Name) or expr.id not in state.vars:
            return
        val = state.vars[expr.id]
        if op_type is ast.Lt:
            bound = Interval(-INF, other.hi - 1)
        elif op_type is ast.LtE:
            bound = Interval(-INF, other.hi)
        elif op_type is ast.Gt:
            bound = Interval(other.lo + 1, INF)
        elif op_type is ast.GtE:
            bound = Interval(other.lo, INF)
        elif op_type is ast.Eq:
            bound = other
        else:
            return
        met = val.interval.meet(bound)
        if not met.is_empty:
            state.vars[expr.id] = AbsVal(val.affine, met, val.taint)

    # -- barrier divergence ---------------------------------------------

    def barriers(self):
        """(stmt, divergent, controlling_line) per ``syncthreads()``,
        using the fixpoint-recorded taints of every predicate."""
        out: list = []
        self._div_walk(self.fn.body, 0, 0, out)
        return out

    def _is_sync(self, stmt) -> bool:
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and (self._is_cuda_attr(stmt.value.func, "syncthreads")
                     or (isinstance(stmt.value.func, ast.Name)
                         and stmt.value.func.id == "syncthreads")))

    def _div_walk(self, body, depth: int, dline: int, out: list) -> None:
        for stmt in body:
            if self._is_sync(stmt):
                out.append((stmt, depth > 0, dline))
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                varying = self.test_taint.get(
                    id(stmt), T_NONE) in _THREAD_VARYING
                d = depth + 1 if varying else depth
                line = stmt.lineno if varying and not depth else dline
                self._div_walk(stmt.body, d, line, out)
                self._div_walk(stmt.orelse, d, line, out)
                if isinstance(stmt, ast.If) and varying \
                        and (self._terminates(stmt.body)
                             or self._terminates(stmt.orelse)):
                    # surviving threads only: the early exit extends
                    # the divergent region past the branch
                    depth, dline = d, line
            elif isinstance(stmt, ast.For):
                varying = self.test_taint.get(
                    id(stmt), T_NONE) in _THREAD_VARYING
                d = depth + 1 if varying else depth
                line = stmt.lineno if varying and not depth else dline
                self._div_walk(stmt.body, d, line, out)
                self._div_walk(stmt.orelse, depth, dline, out)
            elif isinstance(stmt, (ast.Try, ast.With)):
                self._div_walk(getattr(stmt, "body", []), depth, dline,
                               out)

    @staticmethod
    def _terminates(body) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Break, ast.Continue, ast.Raise))


# ---------------------------------------------------------------------------
# File-level pass
# ---------------------------------------------------------------------------


@dataclass
class AbsintResult:
    """Everything the driver and the CLI consume from one file."""

    report: Report = field(default_factory=Report)
    classes: list = field(default_factory=list)


def _kernel_defs(ctx) -> tuple[list, dict]:
    """The file's ``@cuda.jit`` definitions in BFS order, and its other
    functions by name (the last definition of a name wins)."""
    defs, helpers = [], {}
    for node in ctx.nodes_of(ast.FunctionDef):
        if _is_kernel_def(node, ctx.cuda_names):
            defs.append(node)
        else:
            helpers[node.name] = node
    return defs, helpers


def absint_context(ctx) -> AbsintResult:
    """Run the abstract interpreter over every kernel in one shared
    :class:`~repro.analysis.context.AnalysisContext` (cached there —
    the ``kernel`` and ``absint`` families and the classifier share one
    run)."""
    return ctx.memo(AbsintResult, lambda: _absint(ctx))


def _absint(ctx) -> AbsintResult:
    result = AbsintResult()
    defs, helpers = _kernel_defs(ctx)
    kernels = {}        # name -> first def: launch sites bind to it
    for fn in defs:
        kernels.setdefault(fn.name, fn)
    launches = _scan_launches(ctx, kernels) if kernels else {}
    # a later def reusing a kernel's name cannot be told apart at a
    # launch site, so it is analyzed without a launch env
    for fn in sorted(defs, key=lambda d: (d.name, d.lineno)):
        envs = launches.get(fn.name, ()) if kernels[fn.name] is fn else ()
        kc = _analyze_kernel(ctx, fn, helpers, envs, result.report)
        if kc is not None:
            result.classes.append(kc)
    return result


def _analyze_kernel(ctx, fn, helpers, launch_envs,
                    report: Report) -> KernelClass | None:
    envs = []
    seen = set()
    for env in launch_envs:
        if env.key() not in seen:
            seen.add(env.key())
            envs.append(env)
        if len(envs) >= _MAX_ENVS:
            break
    if not envs:
        envs = [LaunchEnv()]
    interp = _KernelInterp(ctx, fn, helpers)
    try:
        for env in envs:
            interp.run_env(env)
    except (RecursionError, ValueError, TypeError,
            KeyError):  # pragma: no cover - defensive fallback
        return None

    facts = KernelFacts(kernel=fn.name, file=ctx.filename,
                        line=fn.lineno,
                        launches=len(launch_envs))
    # barriers, with the fixpoint-precise divergence verdicts
    emitted = set()
    for stmt, divergent, dline in interp.barriers():
        facts.barriers += 1
        if divergent:
            facts.divergent_barriers += 1
            line = stmt.lineno
            if line not in emitted:
                emitted.add(line)
                report.add(make_finding(
                    "SAN-BARRIER-DIV",
                    "syncthreads() is control-dependent on a thread-"
                    f"varying predicate (line {dline})"
                    ": threads that skip the branch never reach the "
                    "barrier and the block deadlocks",
                    file=ctx.filename, line=line, context=fn.name))
    # the OOB proof, merged over every launch environment
    oob_lines = set()
    for key in sorted(interp.verdicts):
        if interp.verdicts[key] == "oob":
            line, base, why = interp.oob_detail[key]
            if (base, line) in oob_lines:
                continue
            oob_lines.add((base, line))
            report.add(make_finding(
                "SAN-OOB",
                f"grid-derived index into `{base}` {why} on a "
                "reachable path; the launch grid rounds up, so the "
                "access runs past the extent",
                file=ctx.filename, line=line, context=fn.name))
    verdicts = set(interp.verdicts.values())
    if "oob" in verdicts:
        facts.oob = "oob"
    elif verdicts <= {"safe"}:
        facts.oob = "proven_safe"
    else:
        facts.oob = "unknown"
    # footprints for the classifier
    for key in sorted(interp.accesses):
        access = interp.accesses[key]
        facts.accesses.append(access)
        if any(b is None for b, _ in access.axes):
            facts.non_affine_accesses += 1
        taints = [affine_taint(Affine.make(_parse_base(b)))
                  for b, _ in access.axes if b is not None]
        if any(t in _THREAD_VARYING for t in taints):
            facts.thread_varying_accesses += 1
        if access.write and taints \
                and all(t in (T_NONE, T_BLOCK) for t in taints):
            facts.block_indexed_writes += 1
    facts.shared = set(interp.shared)
    facts.has_mac_loop = _has_mac_loop(fn)
    facts.races = sum(1 for f in ctx.kernel_lint(fn)
                      if f.rule == "SAN-SHARED-RACE")
    kc = classify(facts)
    report.add(class_finding(kc))
    return kc


def _parse_base(rendered: str) -> dict:
    """Inverse of ``Affine.render`` for base forms (no constant)."""
    out: dict = {}
    for part in rendered.split(" + "):
        part = part.strip()
        if not part or part.lstrip("-").isdigit():
            continue
        if "*" in part:
            coeff, atom = part.split("*", 1)
            out[atom] = int(coeff)
        else:
            out[part] = 1
    return out


def _has_mac_loop(fn: ast.FunctionDef) -> bool:
    """A multiply-accumulate (``acc += a[...] * b[...]``) inside a
    loop — the tiled-matmul signature."""
    for node in ast.walk(fn):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.AugAssign) \
                    and isinstance(inner.op, ast.Add):
                for mul in ast.walk(inner.value):
                    if isinstance(mul, ast.BinOp) \
                            and isinstance(mul.op, ast.Mult) \
                            and any(isinstance(n, ast.Subscript)
                                    for n in ast.walk(mul.left)) \
                            and any(isinstance(n, ast.Subscript)
                                    for n in ast.walk(mul.right)):
                        return True
    return False


def absint_source(source: str, filename: str = "<string>", *,
                  line_offset: int = 0) -> AbsintResult:
    """One-shot convenience over a source string."""
    from repro.analysis.context import AnalysisContext

    return absint_context(AnalysisContext(source, filename=filename,
                                          line_offset=line_offset))


def classify_kernel(kernel) -> KernelClass:
    """Classify a live kernel (a :class:`repro.jit.cuda.CudaKernel`,
    a plain function, or a source string).  With no launch site in the
    extracted source, extents are anonymous atoms — guards still prove
    safety, launch-dependent bounds stay unknown."""
    import inspect
    import textwrap

    if isinstance(kernel, str):
        result = absint_source(kernel)
    else:
        fn = getattr(kernel, "fn", kernel)
        try:
            lines, start = inspect.getsourcelines(fn)
            filename = inspect.getsourcefile(fn) or "<kernel>"
        except (OSError, TypeError):
            raise ValueError(
                f"cannot retrieve source for {fn!r}; pass the source "
                "string")
        # kernels are routinely defined inside functions; dedent so the
        # extracted block parses standalone
        result = absint_source(textwrap.dedent("".join(lines)),
                               filename=filename,
                               line_offset=start - 1)
    if not result.classes:
        raise ValueError("no @cuda.jit kernel found in the source")
    return result.classes[0]


def classify_launch(launch) -> KernelClass | None:
    """Prove one concrete launch (a :class:`repro.jit.lowering.LaunchSpec`):
    the kernel in ``launch.source`` is analyzed under exactly its grid,
    block, array extents and int values (scalar arguments and folded
    module/closure constants) — the JIT dispatcher's launch-time proof.
    ``None`` when no kernel is found or the analysis gives up."""
    from repro.analysis.context import AnalysisContext

    ctx = AnalysisContext(launch.source, filename=launch.filename,
                          line_offset=launch.line_offset)
    if ctx.tree is None:
        return None
    defs, helpers = _kernel_defs(ctx)
    if not defs:
        return None
    fn = defs[0]
    env = LaunchEnv(
        block=tuple(launch.block), grid=tuple(launch.grid),
        scalars={n: Affine.constant(v) for n, v in launch.ints.items()},
        extents={p: tuple(Affine.constant(d) for d in shape)
                 for p, shape in launch.shapes.items()})
    return _analyze_kernel(ctx, fn, helpers, [env], Report())


__all__ = [
    "AbsintResult",
    "LaunchEnv",
    "absint_context",
    "absint_source",
    "classify_kernel",
    "classify_launch",
]
