"""Masked-lockstep lowering of verified ``@cuda.jit`` kernels.

The per-thread interpreter in :mod:`repro.jit.cuda` calls the kernel's
Python body once per simulated thread.  This module turns the same
body into *one* whole-array numpy function ("whole-function
vectorization"): every lane of the launch is one element of a numpy
array, ordered block-major exactly like the interpreter's thread
loop.

* ``if``/``IfExp``/``and``/``or`` with a lane-varying test become
  masks; a branch runs only when some lane takes it, and loads and
  stores touch only the lanes of the current mask, so masked-off
  lanes never read memory.
* ``return`` under a lane-varying test (the ``if i >= n: return``
  early exit) retires those lanes for the rest of the kernel.
* ``cuda.shared.array`` gets a leading block axis; ``syncthreads()``
  is implied by running the lanes in lockstep.
* Loops must have launch-uniform bounds; they run as plain Python
  loops around the lane arrays.

One transformer covers the elementwise, stencil, reduction and
tiled-matmul archetypes.  Values keep the interpreter's types: a lane
that holds a Python ``int``/``float`` in the interpreter is an
int64/float64 lane array wrapped in :class:`_Weak`, which promotes
like the Python scalar it stands for (NEP 50: ``x[i] * i`` on float32
``x`` stays float32).  Python ints are modelled as int64: int lanes
carry bounds, and arithmetic whose exact result could leave int64
(or lose exactness converting to float) is not lowered.  Before numpy
2.0 the interpreter promotes by value instead, so nothing is lowered
there.

Lockstep matches the interpreter's thread-by-thread order only when
lanes do not talk to each other, so the generated code checks that as
it runs: every cell of a written global array is touched by one lane
only, and within a barrier interval no lane reads or writes a shared
cell another lane wrote (or writes one another lane read).  Anything
else the interpreter would do differently -- a Python division by zero,
an int result that could wrap, a shared index out of range, lanes whose
Python types differ where arithmetic needs one -- raises
:class:`_Bail`.  The launcher then restores the written arrays and
reruns the launch on the interpreter.

Warnings stay the interpreter's: a floating-point error that numpy's
current error mode would warn about (divide, overflow, invalid) sends
the launch back to the interpreter, which prints it.  Masked-off lanes
compute on placeholder values, so this can also fire where the
interpreter stays silent; that costs a rerun, never a changed byte.  A
launch made while numpy's error mode is ``raise``, ``call``, ``print``
or ``log`` runs on the interpreter.

Everything here is host-execution strategy only: the caller charges
simulated time the same way on both paths.
"""

from __future__ import annotations

import ast
import dis
import inspect
import operator
import textwrap
from typing import NamedTuple

import numpy as np


class Unsupported(Exception):
    """The kernel (or this launch of it) cannot be lowered."""


class _Bail(Exception):
    """Lockstep execution would diverge from the interpreter."""


class LaunchSpec(NamedTuple):
    """What the launch-time proof needs: the concrete launch shape, the
    int values the body reads (scalar arguments and folded module or
    closure constants), the array extents, and the exact source the
    lowering was generated from."""

    grid: tuple
    block: tuple
    ints: dict
    shapes: dict
    source: str
    filename: str
    line_offset: int


# ---------------------------------------------------------------------------
# Source retrieval
# ---------------------------------------------------------------------------


class KernelSource(NamedTuple):
    source: str
    filename: str
    line_offset: int
    fdef: ast.FunctionDef


def kernel_source(fn) -> KernelSource:
    """The kernel's source and ``FunctionDef``, trusted only when the
    source still compiles to the bytecode ``fn`` runs (a file edited
    after import would otherwise be lowered from the wrong text)."""
    code = fn.__code__
    try:
        lines, start = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<kernel>"
    except (OSError, TypeError) as exc:
        raise Unsupported("kernel source is not retrievable") from exc
    source = textwrap.dedent("".join(lines))
    # an enclosing function declaring the closure variables makes them
    # free variables again, so the bytecode compares like for like
    wrapped = "def _enclosing():\n" + "".join(
        f"    {name} = None\n" for name in code.co_freevars
    ) + textwrap.indent(source, "    ")
    try:
        module = compile(wrapped, filename, "exec", dont_inherit=True)
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise Unsupported("kernel source does not parse standalone") from exc
    enclosing = next(c for c in module.co_consts if inspect.iscode(c))
    compiled = [c for c in enclosing.co_consts
                if inspect.iscode(c) and c.co_name == code.co_name]
    if len(compiled) != 1 or _instructions(compiled[0]) \
            != _instructions(code) or any(
            getattr(compiled[0], attr) != getattr(code, attr)
            for attr in ("co_consts", "co_names", "co_varnames",
                         "co_freevars")):
        raise Unsupported("kernel source no longer matches its bytecode")
    fdef = next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == code.co_name), None)
    if fdef is None:
        raise Unsupported("kernel definition not found in its source")
    return KernelSource(source, filename, start - 1, fdef)


def _instructions(code) -> list:
    """``code``'s instruction stream, minus what depends on the
    compilation unit rather than on the function's text: CPython calls
    a method of an imported module through ``LOAD_ATTR`` (plus a
    ``PUSH_NULL`` on 3.13) where it would otherwise use ``LOAD_METHOD``,
    which also shifts jump offsets, so jumps are compared by target
    instruction."""
    ins = [i for i in dis.get_instructions(code) if i.opname != "PUSH_NULL"]
    at = {i.offset: n for n, i in enumerate(ins)}
    jumps = set(dis.hasjrel) | set(dis.hasjabs)
    return [("LOAD_ATTR" if i.opname == "LOAD_METHOD" else i.opname,
             at.get(i.argval) if i.opcode in jumps else i.argval)
            for i in ins]


def _free_values(fn) -> dict:
    """Closure variables and globals the kernel's bytecode names."""
    code = fn.__code__
    out = {}
    for name in code.co_names:
        if name in fn.__globals__:
            out[name] = fn.__globals__[name]
    for name, cell in zip(code.co_freevars, fn.__closure__ or ()):
        try:
            out[name] = cell.cell_contents
        except ValueError:          # an empty cell: never bound
            pass
    return out


def _foldable(value) -> bool:
    return (type(value) in (int, float, bool)
            or (isinstance(value, np.generic)
                and value.dtype.kind in "biuf"))


def signature(fn, run_args, grid: tuple, block: tuple) -> tuple:
    """The dispatch key of one launch: per-argument kind, dtype and
    shape (int scalars by value), the launch shape, and the values of
    the scalar constants the body can read."""
    sig = []
    for a in run_args:
        t = type(a)
        if t is np.ndarray:
            sig.append((a.dtype, a.shape))
        elif t is int or t is bool:
            sig.append((t, a))
        elif isinstance(a, np.generic):
            sig.append((a.dtype, a.item()) if a.dtype.kind in "biu"
                       else a.dtype)
        else:
            sig.append(t)
    consts = tuple((name, type(v), v)
                   for name, v in _free_values(fn).items() if _foldable(v))
    return tuple(sig), grid, block, consts


# ---------------------------------------------------------------------------
# Runtime: lane values and the helpers the generated code calls
# ---------------------------------------------------------------------------


class _Weak:
    """Lanes that each hold a Python int/float/bool in the interpreter:
    int64/float64/bool storage, Python (weak) promotion.  Int lanes
    carry ``lo``/``hi``, Python ints bounding every lane (masked-off
    ones too), so int arithmetic is checked against int64 without a
    pass over the lanes."""

    __slots__ = ("a", "lo", "hi")

    def __init__(self, a: np.ndarray, lo=None, hi=None) -> None:
        self.a = a
        self.lo = lo
        self.hi = hi


class _Mixed:
    """Lanes whose Python types differ (``x[i] if c else 0.0``): held
    exactly in int64 or float64, good for a store and nothing else."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray) -> None:
        self.a = a


class _Undefined:
    """Initial value of every kernel local: no lane has bound it yet."""

    __slots__ = ()


_UNDEF = _Undefined()

#: the lanes reproduce NEP 50 promotion, numpy's rule from 2.0 on
_NEP50 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"
_PY_SCALARS = (int, float, bool)
_DIVISIONS = (operator.truediv, operator.floordiv, operator.mod)
#: ints beyond this magnitude do not all convert to float exactly, so
#: Python (exact int/float comparison, correctly rounded ``int / int``)
#: and numpy (convert, then compute) can disagree on them
_EXACT_IN_FLOAT = 2 ** 53


class _Lanes:
    """Per-launch-shape lane constants."""

    def __init__(self, grid: tuple, block: tuple) -> None:
        self.grid = grid
        self.block = block
        self.nthreads = block[0] * block[1] * block[2]
        self.nblocks = grid[0] * grid[1] * grid[2]
        self.n = self.nthreads * self.nblocks
        self.lane = np.arange(self.n, dtype=np.int64)
        self.blk = self.lane // self.nthreads
        for arr in (self.lane, self.blk):
            arr.setflags(write=False)

    def index(self, which: str, axis: int) -> _Weak:
        """``threadIdx``/``blockIdx``/``grid`` along one axis."""
        t = self.lane % self.nthreads
        b = self.blk
        bx, by, _ = self.block
        gx, gy, _ = self.grid
        tid = (t % bx, (t // bx) % by, t // (bx * by))[axis]
        bid = (b % gx, (b // gx) % gy, b // (gx * gy))[axis]
        out = {"tid": tid, "bid": bid,
               "grid": bid * self.block[axis] + tid}[which]
        out.setflags(write=False)
        return _Weak(out, int(out.min()), int(out.max()))


def _tag(v) -> tuple:
    """(``weak``, kind) for Python scalars and their lanes, (``mixed``,
    kind) for mixed lanes, (``strong``, dtype) for numpy values."""
    t = type(v)
    if t is _Weak:
        return "weak", v.a.dtype.kind
    if t is _Mixed:
        return "mixed", v.a.dtype.kind
    if t in _PY_SCALARS:
        return "weak", {int: "i", float: "f", bool: "b"}[t]
    return "strong", v.dtype


def _family(tag: tuple):
    """'f' (float-like), 'i' (int-like) or None, for mixing lanes."""
    category, kind = tag
    if category == "strong":
        if kind == np.uint64:
            return None
        kind = "i" if kind.kind == "u" else kind.kind
    return kind if kind in ("f", "i") else None


def _is_bool_lanes(v) -> bool:
    return type(v) is np.ndarray and v.dtype == np.bool_


def _span(v, m) -> tuple:
    """(lo, hi) as Python ints bounding the live lanes of an int value:
    exact for a Python int, the carried bounds for weak lanes, a pass
    over the live lanes for numpy values."""
    t = type(v)
    if t is int:
        return v, v
    if t is _Weak:
        return v.lo, v.hi
    if t is np.ndarray and v.ndim and m is not None:
        v = v[m]
    if not np.size(v):
        return 0, 0
    return int(np.min(v)), int(np.max(v))


def _result_span(op, a: tuple, b: tuple):
    """Bounds of ``op``'s exact (unbounded) int result over operands in
    ``a`` and ``b``; ``None`` when there is no cheap bound."""
    (alo, ahi), (blo, bhi) = a, b
    if op is operator.add:
        return alo + blo, ahi + bhi
    if op is operator.sub:
        return alo - bhi, ahi - blo
    if op is operator.mul:
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(corners), max(corners)
    if op is operator.floordiv:          # |a // b| <= |a| for b != 0
        big = max(-alo, ahi)
        return -big, big
    if op is operator.mod:               # takes the divisor's sign
        return (0 if blo > 0 else blo + 1), (0 if bhi < 0 else bhi - 1)
    return None


def _fits(span, dtype) -> bool:
    info = np.iinfo(dtype)
    return span is not None and info.min <= span[0] and span[1] <= info.max


def _exact_in_float(span) -> bool:
    return -_EXACT_IN_FLOAT <= span[0] and span[1] <= _EXACT_IN_FLOAT


def _to_dtype(x: np.ndarray, d: np.dtype, m, span) -> np.ndarray:
    """Weak lanes converted the way NEP 50 converts a Python scalar
    meeting a value of dtype ``d``; ``span`` bounds int lanes."""
    r = np.result_type(d, {"f": 0.0, "b": False}.get(x.dtype.kind, 0))
    if x.dtype.kind == "i" and r != x.dtype:
        if r.kind in "iu" and not _fits(span, r):
            live = x if m is None else x[m]
            info = np.iinfo(r)
            if live.size and (live.min() < info.min or live.max() > info.max):
                raise _Bail("Python int out of range for the array dtype")
        elif r.kind in "fc" and not _exact_in_float(span):
            raise _Bail("Python int too large to convert to float exactly")
    return x.astype(r)


def _ar(op, a, b, m):
    """Binary arithmetic with the interpreter's promotion rules.  Int
    results are checked for overflow: Python ints never wrap, and a
    numpy int scalar that wraps prints a ``RuntimeWarning``, so either
    way the interpreter must run a launch that would wrap."""
    ta, tb = type(a), type(b)
    if ta is _Mixed or tb is _Mixed:
        raise _Bail("arithmetic on lanes of mixed Python types")
    wa, wb = ta is _Weak, tb is _Weak
    if not (wa or wb):
        if _is_bool_lanes(a) or _is_bool_lanes(b):
            raise _Bail("arithmetic on boolean lanes")
        out = op(a, b)
        if type(out) not in _PY_SCALARS and out.dtype.kind in "iu" \
                and not _fits(_result_span(op, _span(a, m), _span(b, m)),
                              out.dtype):
            raise _Bail("integer arithmetic would overflow")
        return out
    x = a.a if wa else a
    y = b.a if wb else b
    if (wa and x.dtype == np.bool_) or (wb and y.dtype == np.bool_) \
            or ta is bool or tb is bool:
        raise _Bail("arithmetic on Python bools")
    da = None if wa or ta in _PY_SCALARS else x.dtype
    db = None if wb or tb in _PY_SCALARS else y.dtype
    # Python kinds ('i', 'f', 'b') of the weak operands
    ka = _tag(a)[1] if da is None else None
    kb = _tag(b)[1] if db is None else None
    if da is None and db is None:
        if op is operator.pow:
            raise _Bail("Python power on lanes")
        if op in _DIVISIONS:
            den = y if not wb or m is None else y[m]
            if np.any(den == 0):
                raise _Bail("Python division by zero")
        if ka == "i" and kb == "i":
            sa, sb = _span(a, m), _span(b, m)
            if op is operator.truediv:
                if not (_exact_in_float(sa) and _exact_in_float(sb)):
                    raise _Bail("Python int too large for exact division")
                return _Weak(op(x, y))
            span = _result_span(op, sa, sb)
            if not _fits(span, np.int64):
                raise _Bail("Python int arithmetic would leave int64")
            return _Weak(op(x, y), *span)
        return _Weak(op(x, y))
    if da is None:
        x = _to_dtype(x, db, m, _span(a, m) if ka == "i" else None)
    else:
        y = _to_dtype(y, da, m, _span(b, m) if kb == "i" else None)
    out = op(x, y)
    if out.dtype.kind in "iu" and not _fits(
            _result_span(op, _span(a, m), _span(b, m)), out.dtype):
        raise _Bail("integer arithmetic would overflow")
    return out


def _cmp(op, a, b, m):
    """A comparison; lanes compare with the interpreter's conversions."""
    ta, tb = type(a), type(b)
    if ta is _Mixed or tb is _Mixed:
        raise _Bail("comparison on lanes of mixed Python types")
    wa, wb = ta is _Weak, tb is _Weak
    if not (wa or wb):
        return op(a, b)
    x = a.a if wa else a
    y = b.a if wb else b
    da = None if wa or ta in _PY_SCALARS else x.dtype
    db = None if wb or tb in _PY_SCALARS else y.dtype
    # Python kinds ('i', 'f', 'b') of the weak operands
    ka = _tag(a)[1] if da is None else None
    kb = _tag(b)[1] if db is None else None
    if da is not None:
        y = _to_dtype(y, da, m, _span(b, m) if kb == "i" else None)
    elif db is not None:
        x = _to_dtype(x, db, m, _span(a, m) if ka == "i" else None)
    elif {ka, kb} == {"i", "f"} and not _exact_in_float(
            _span(a if ka == "i" else b, m)):
        raise _Bail("Python int too large to compare with a float exactly")
    return op(x, y)


def _truth(lanes: _Lanes, v) -> np.ndarray:
    """Per-lane truth of ``v`` as a boolean lane array."""
    t = type(v)
    if t is _Weak:
        v = v.a
    elif t is _Mixed:
        raise _Bail("truth of lanes of mixed Python types")
    elif t is not np.ndarray:
        return np.full(lanes.n, bool(v))
    return v if v.dtype == np.bool_ else v != 0


def _neg(v, m):
    t = type(v)
    if t is _Weak:
        if v.a.dtype == np.bool_:
            raise _Bail("negating Python bools")
        if v.a.dtype.kind != "i":
            return _Weak(-v.a)
        span = (-v.hi, -v.lo)
        if not _fits(span, np.int64):
            raise _Bail("Python int negation would leave int64")
        return _Weak(-v.a, *span)
    if t is _Mixed:
        raise _Bail("negating lanes of mixed Python types")
    if v.dtype.kind in "iu":
        lo, hi = _span(v, m)
        if not _fits((-hi, -lo), v.dtype):
            raise _Bail("integer negation would overflow")
    return -v


def _sel(t, a, b):
    """Lanes of ``a`` where ``t`` holds, of ``b`` elsewhere."""
    if t is None:
        return a
    if b is _UNDEF:
        b = a
    ka, kb = _tag(a), _tag(b)
    ra = a.a if type(a) in (_Weak, _Mixed) else a
    rb = b.a if type(b) in (_Weak, _Mixed) else b
    if ka == kb and ka[0] != "mixed":
        if ka[0] == "strong":
            return np.where(t, ra, rb).astype(ka[1], copy=False)
        wide = {"i": np.int64, "f": np.float64, "b": np.bool_}[ka[1]]
        out = np.where(t, np.asarray(ra, wide), np.asarray(rb, wide))
        if ka[1] != "i":
            return _Weak(out)
        (alo, ahi), (blo, bhi) = _span(a, None), _span(b, None)
        return _Weak(out, min(alo, blo), max(ahi, bhi))
    fa, fb = _family(ka), _family(kb)
    if fa is None or fa != fb:
        raise _Bail("lanes would hold values of unrelated types")
    wide = np.float64 if fa == "f" else np.int64
    return _Mixed(np.where(t, np.asarray(ra, wide), np.asarray(rb, wide)))


def _index(idx: tuple, m):
    """Per-axis indices restricted to the active lanes, and whether any
    axis varies across lanes."""
    comps = []
    varies = False
    for v in idx:
        t = type(v)
        if t is _Weak or t is np.ndarray:
            raw = v.a if t is _Weak else v
            if raw.dtype.kind not in "iu":
                raise _Bail("non-integer index")
            comps.append(raw if m is None else raw[m])
            varies = True
        elif t is int or (isinstance(v, np.generic)
                          and v.dtype.kind in "iu"):
            comps.append(v)
        else:
            raise _Bail("unsupported index")
    return tuple(comps), varies


def _claim(lanes: _Lanes, shape, touch: np.ndarray, comps, m) -> None:
    """Record that the active lanes touch these cells of a written
    array; a cell touched by two lanes breaks one-lane-per-cell."""
    flat = np.ravel_multi_index(comps, shape)
    ln = lanes.lane if m is None else lanes.lane[m]
    prev = touch[flat]
    if np.any((prev >= 0) & (prev != ln)):
        raise _Bail("two lanes touch one cell of a written array")
    touch[flat] = ln
    if np.any(touch[flat] != ln):
        raise _Bail("two lanes touch one cell of a written array")


def _expand(lanes: _Lanes, vals: np.ndarray, m) -> np.ndarray:
    if m is None:
        return vals
    out = np.zeros(lanes.n, dtype=vals.dtype)
    out[m] = vals
    return out


def _ld(lanes: _Lanes, arr: np.ndarray, idx: tuple, m, touch):
    """A global-array load on the active lanes."""
    comps, varies = _index(idx, m)
    if not varies:
        return arr[comps]
    if touch is not None:
        _claim(lanes, arr.shape, touch, comps, m)
    return _expand(lanes, arr[comps], m)


def _store_value(dtype: np.dtype, val, m):
    t = type(val)
    if t in (_Weak, _Mixed, np.ndarray):
        raw = val.a if t is not np.ndarray else val
        if m is not None:
            raw = raw[m]
        kind = raw.dtype.kind
    else:
        raw = val
        kind = np.asarray(val).dtype.kind
    if dtype.kind in "iu":
        if kind in "fc":
            raise _Bail("float stored into an int array")
        if kind in "iu" and np.size(raw):
            info = np.iinfo(dtype)
            if np.min(raw) < info.min or np.max(raw) > info.max:
                raise _Bail("int out of range for the array dtype")
    elif kind == "i" and t in (_Weak, _Mixed) and np.size(raw) and (
            np.min(raw) < -_EXACT_IN_FLOAT or np.max(raw) > _EXACT_IN_FLOAT):
        raise _Bail("Python int too large to store as a float exactly")
    return raw


def _st(lanes: _Lanes, arr: np.ndarray, idx: tuple, val, m, touch) -> None:
    """A global-array store from the active lanes."""
    comps, varies = _index(idx, m)
    if not varies:
        raise _Bail("every lane stores to one cell")
    if touch is not None:
        _claim(lanes, arr.shape, touch, comps, m)
    arr[comps] = _store_value(arr.dtype, val, m)


class _Shared:
    """One ``cuda.shared.array`` for every block, plus the per-cell
    writer/reader lanes of the current barrier interval."""

    __slots__ = ("data", "flat", "owner", "reader")

    def __init__(self, nblocks: int, shape: tuple, dtype) -> None:
        self.data = np.zeros((nblocks,) + shape, dtype=dtype)
        self.flat = self.data.reshape(-1)
        self.owner = np.full(self.data.size, -1, dtype=np.int64)
        self.reader = np.full(self.data.size, -1, dtype=np.int64)


def _shared(lanes: _Lanes, registry: list, shape, dtype) -> _Shared:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    arr = _Shared(lanes.nblocks, tuple(int(s) for s in shape), dtype)
    registry.append(arr)
    return arr


def _scells(lanes: _Lanes, sh: _Shared, idx: tuple, m):
    comps, _ = _index(idx, m)
    blk = lanes.blk if m is None else lanes.blk[m]
    try:
        flat = np.ravel_multi_index((blk,) + comps, sh.data.shape)
    except ValueError as exc:
        # negative indices wrap in the interpreter; let it run them
        raise _Bail("shared index out of range") from exc
    return flat, (lanes.lane if m is None else lanes.lane[m])


def _sld(lanes: _Lanes, sh: _Shared, idx: tuple, m):
    """A shared-memory load: no cell another lane wrote this interval."""
    flat, ln = _scells(lanes, sh, idx, m)
    owner = sh.owner[flat]
    if np.any((owner >= 0) & (owner != ln)):
        raise _Bail("shared read of another lane's write before a barrier")
    seen = sh.reader[flat]
    mark = np.where((seen == -1) | (seen == ln), ln, -2)
    sh.reader[flat] = mark
    dup = sh.reader[flat] != mark
    if dup.any():
        sh.reader[flat[dup]] = -2
    vals = sh.flat[flat]
    return _expand(lanes, vals, m)


def _sst(lanes: _Lanes, sh: _Shared, idx: tuple, val, m) -> None:
    """A shared-memory store: no cell another lane touched this
    interval, and one lane per cell."""
    flat, ln = _scells(lanes, sh, idx, m)
    owner = sh.owner[flat]
    seen = sh.reader[flat]
    if np.any(((owner >= 0) & (owner != ln)) | ((seen != -1) & (seen != ln))):
        raise _Bail("shared write races another lane before a barrier")
    sh.owner[flat] = ln
    if np.any(sh.owner[flat] != ln):
        raise _Bail("two lanes write one shared cell before a barrier")
    sh.flat[flat] = _store_value(sh.data.dtype, val, m)


def _sync(registry: list) -> None:
    """``syncthreads()``: lockstep already ordered the lanes; start a
    new barrier interval for the shared-memory checks."""
    for sh in registry:
        sh.owner.fill(-1)
        sh.reader.fill(-1)


def _mand(m, t):
    return t if m is None else m & t


def _claim_map(arr: np.ndarray) -> np.ndarray:
    return np.full(arr.size, -1, dtype=np.int64)


_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
}
_CMPOPS = {
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
    ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne,
}
_PY_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**"}
_PY_CMPOPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
              ast.Eq: "==", ast.NotEq: "!="}

_RUNTIME = {
    "_j_UNDEF": _UNDEF, "_j_ar": _ar, "_j_cmp": _cmp, "_j_truth": _truth,
    "_j_neg": _neg, "_j_sel": _sel, "_j_ld": _ld, "_j_st": _st,
    "_j_shared": _shared, "_j_sld": _sld, "_j_sst": _sst, "_j_sync": _sync,
    "_j_mand": _mand, "_j_claim_map": _claim_map,
}
for _op, _fn in list(_BINOPS.items()) + list(_CMPOPS.items()):
    _RUNTIME[f"_j_{_op.__name__}"] = _fn


# ---------------------------------------------------------------------------
# The transformer
# ---------------------------------------------------------------------------

_AXES = "xyz"
_LIVE = "live"          # the kernel body's context: all lanes not retired
_ARRAY_ATTRS = ("size", "shape", "ndim")


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                  ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
                  ast.GeneratorExp, ast.Global, ast.Nonlocal)


def _ends_in_return(body) -> bool:
    return bool(body) and isinstance(body[-1], ast.Return)


class _Lowerer:
    """Translate one kernel ``FunctionDef`` for one launch signature
    into the source of a masked-lockstep numpy function."""

    def __init__(self, fdef: ast.FunctionDef, run_args, names: dict,
                 grid: tuple, block: tuple) -> None:
        from repro.jit import cuda

        args = fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise Unsupported("kernel signature is not plain positional")
        self.fdef = fdef
        # the body only: decorator arguments run once, at definition
        self.body_nodes = [n for stmt in fdef.body for n in ast.walk(stmt)]
        self.params = [a.arg for a in args.args]
        if len(self.params) != len(run_args):
            raise Unsupported("argument count differs from the signature")
        self.arrays = set()
        for p, a in zip(self.params, run_args):
            if type(a) is np.ndarray and a.ndim >= 1:
                self.arrays.add(p)
            elif not (type(a) in _PY_SCALARS or (
                    isinstance(a, np.generic) and a.dtype.kind in "biuf")):
                raise Unsupported(f"argument `{p}` is not an array or "
                                  "a number")
        self.grid, self.block = grid, block
        self.locals = self._local_names()
        clash = [n for n in self.locals | set(self.params)
                 if n.startswith("_j_")]
        if clash:
            raise Unsupported(f"name `{clash[0]}` is reserved")
        if self.locals & set(self.params):
            raise Unsupported("kernel rebinds a parameter")
        # names the body reads from its module or closure
        self.cuda_names = set()
        self.np_names = set()
        self.consts = {}
        self.has_range = False
        for node in self.body_nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in self.locals \
                    and node.id not in self.params:
                self._resolve(node.id, names, cuda)
        self.loop_vars = self._loop_vars()
        self.shared: dict = {}
        self.written = self._written_arrays()
        self.varying: set = set()
        self._uniformity()
        self.lines: list[str] = []
        self.depth = 1
        self.ntemps = 0
        self.lane_refs: dict = {}     # generated name -> (which, axis)
        self.namespace: dict = {}
        self.after_return = False
        self.loop_depth = 0
        self.assigned: set = set()     # names bound so far (text order)
        self.fresh: set = set()        # names first bound in this branch

    # -- set-up -----------------------------------------------------------

    def _local_names(self) -> set:
        out = set()
        for node in self.body_nodes:
            if isinstance(node, _NESTED_SCOPES):
                raise Unsupported("nested scopes are not lowered")
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                out.add(node.id)
        return out

    def _resolve(self, name: str, names: dict, cuda) -> None:
        if name in names:
            value = names[name]
        elif name == "range":
            self.has_range = True
            return
        else:
            raise Unsupported(f"name `{name}` is not bound")
        if value is cuda:
            self.cuda_names.add(name)
        elif value is np:
            self.np_names.add(name)
        elif _foldable(value):
            self.consts[name] = value
        else:
            raise Unsupported(f"global `{name}` is not a number")

    def _loop_vars(self) -> set:
        """``for`` targets: names bound only by ``for`` headers."""
        targets = set()
        others = set()
        for node in self.body_nodes:
            if isinstance(node, ast.For):
                if not isinstance(node.target, ast.Name):
                    raise Unsupported("loop target is not a name")
                targets.add(node.target.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)):
                tgts = (node.targets if isinstance(node, ast.Assign)
                        else [node.target])
                for t in tgts:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            others.add(n.id)
        if targets & others:
            raise Unsupported("a loop variable is also assigned")
        return targets

    def _written_arrays(self) -> set:
        """Global arrays the kernel stores to.  Each must be indexed by
        one lane-varying subscript everywhere it appears, so every lane
        reads only the cell it writes."""
        subs: dict = {}
        written = set()
        for node in self.body_nodes:
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in self.arrays:
                subs.setdefault(node.value.id, set()).add(
                    ast.dump(node.slice))
                if isinstance(node.ctx, ast.Store):
                    written.add(node.value.id)
        for name in written:
            if len(subs[name]) != 1:
                raise Unsupported(f"`{name}` is written and read at "
                                  "different subscripts")
        return written

    def _is_cuda(self, node, *path) -> bool:
        for attr in reversed(path):
            if not (isinstance(node, ast.Attribute) and node.attr == attr):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.cuda_names

    def _varies(self, node) -> bool:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in self.varying:
                return True
            if isinstance(n, ast.Attribute) and n.attr in (
                    "threadIdx", "blockIdx", "grid") \
                    and isinstance(n.value, ast.Name) \
                    and n.value.id in self.cuda_names:
                return True
            if isinstance(n, ast.Subscript) \
                    and isinstance(n.value, ast.Name) \
                    and n.value.id in self.shared_names:
                return True
        return False

    def _uniformity(self) -> None:
        """Which locals may differ between lanes (fixpoint)."""
        self.shared_names = {
            t.id for node in self.body_nodes
            if isinstance(node, ast.Assign)
            and self._is_cuda(getattr(node.value, "func", None),
                              "shared", "array")
            for t in node.targets if isinstance(t, ast.Name)}
        while True:
            before = len(self.varying)
            self._scan(self.fdef.body, False)
            if len(self.varying) == before:
                break
        for name in self.written:
            for node in self.body_nodes:
                if isinstance(node, ast.Subscript) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == name \
                        and not self._varies(node.slice):
                    raise Unsupported(f"every lane would touch one cell "
                                      f"of written array `{name}`")

    def _scan(self, body, ctx: bool) -> None:
        """Mark names assigned from varying values or under a varying
        branch (``ctx``), where lanes outside the branch keep their old
        value.  Lanes retired by an early return read nothing again, so
        they do not make a name vary."""
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                v = ctx or self._varies(stmt.value)
                for t in stmt.targets:
                    names = t.elts if isinstance(t, ast.Tuple) else [t]
                    self.varying.update(
                        n.id for n in names
                        if v and isinstance(n, ast.Name))
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name) and (
                        ctx or self._varies(stmt.value)):
                    self.varying.add(stmt.target.id)
            elif isinstance(stmt, ast.If):
                inner = ctx or self._varies(stmt.test)
                self._scan(stmt.body, inner)
                self._scan(stmt.orelse, inner)
            elif isinstance(stmt, (ast.For, ast.While)):
                self._scan(stmt.body, ctx)

    # -- emission helpers ---------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def temp(self) -> str:
        self.ntemps += 1
        return f"_j_t{self.ntemps}"

    def mask(self, m):
        """The generated expression for a context's mask."""
        if m is _LIVE:
            return "_j_live" if self.after_return else "None"
        return m

    def lanes_ref(self, which: str, axis: int) -> str:
        name = f"_j_{which}_{_AXES[axis]}"
        self.lane_refs[name] = (which, axis)
        return name

    def const(self, value) -> str:
        if type(value) in (int, bool) or (
                type(value) is float and np.isfinite(value)):
            return repr(value)
        name = f"_j_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    # -- top level ----------------------------------------------------------

    def generate(self) -> str:
        body_locals = sorted(self.locals - self.loop_vars)
        header = [f"def _j_kernel({', '.join(self.params)}):",
                  "    _j_sh = []"]
        if body_locals:
            header.append(f"    {' = '.join(body_locals)} = _j_UNDEF")
        for name in sorted(self.written):
            header.append(f"    _j_touch_{name} = _j_claim_map({name})")
        header.append("    _j_live = None")
        self.stmts(self.fdef.body, _LIVE, set(), live=True)
        self.lines.append("    return")
        return "\n".join(header + self.lines) + "\n"

    # -- statements ---------------------------------------------------------

    def stmts(self, body, m, defined: set, live: bool) -> None:
        """Emit ``body`` under mask ``m``.  ``live`` marks contexts
        whose mask is the kernel's live lanes (no varying branch
        between here and the kernel body)."""
        for stmt in body:
            if isinstance(stmt, ast.Return):
                if stmt.value is not None and not (
                        isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is None):
                    raise Unsupported("kernel returns a value")
                if not live:
                    raise Unsupported("return under a lane-varying branch")
                self.emit("return")
                return
            self.stmt(stmt, m, defined, live)

    def stmt(self, stmt, m, defined: set, live: bool) -> None:
        if isinstance(stmt, ast.Assign):
            self.assign(stmt, m, defined, live)
        elif isinstance(stmt, ast.AugAssign):
            self.augassign(stmt, m, defined)
        elif isinstance(stmt, ast.If):
            self.if_stmt(stmt, m, defined, live)
        elif isinstance(stmt, ast.For):
            self.for_stmt(stmt, m, defined, live)
        elif isinstance(stmt, ast.While):
            if stmt.orelse or self._varies(stmt.test):
                raise Unsupported("loop bound varies across lanes")
            self.emit(f"while {self.uniform(stmt.test, defined)}:")
            self.loop_body(stmt.body, m, defined, live)
        elif isinstance(stmt, ast.Expr):
            self.expr_stmt(stmt, m)
        elif isinstance(stmt, ast.Pass):
            self.emit("pass")
        else:
            raise Unsupported(f"`{type(stmt).__name__}` statement")

    def expr_stmt(self, stmt: ast.Expr, m) -> None:
        value = stmt.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return                                  # a docstring
        if isinstance(value, ast.Call) and not value.args \
                and not value.keywords:
            if self._is_cuda(value.func, "syncthreads"):
                if self.mask(m) != "None":
                    raise Unsupported("barrier under a lane-varying branch")
                self.emit("_j_sync(_j_sh)")
                return
            if self._is_cuda(value.func, "syncwarp"):
                return
        raise Unsupported("expression statement")

    def assign_name(self, name: str, src: str, m, defined: set) -> None:
        """Bind ``name`` on the lanes of ``m``.  Lanes outside the mask
        keep their value unless none of them can read it again: lanes
        retired by an early return, or lanes of a branch that the name
        was first bound in."""
        if m is _LIVE or name in self.fresh:
            self.emit(f"{name} = {src}")
        else:
            self.emit(f"{name} = _j_sel({m}, {src}, {name})")
        defined.add(name)
        self.assigned.add(name)

    def assign(self, stmt: ast.Assign, m, defined: set, live: bool) -> None:
        if len(stmt.targets) != 1:
            raise Unsupported("chained assignment")
        target, value = stmt.targets[0], stmt.value
        if isinstance(value, ast.Call) \
                and self._is_cuda(value.func, "shared", "array"):
            self.shared_alloc(target, value, m, live)
            defined.add(target.id)
            return
        if isinstance(target, ast.Name):
            self.assign_name(target.id, self.expr(value, m, defined), m,
                             defined)
        elif isinstance(target, ast.Tuple) and all(
                isinstance(e, ast.Name) for e in target.elts):
            names = [e.id for e in target.elts]
            if isinstance(value, ast.Call) \
                    and self._is_cuda(value.func, "grid") \
                    and self._const_int(value, len(names)):
                srcs = [self.lanes_ref("grid", a) for a in range(len(names))]
            elif not self._varies(value):
                srcs = [self.temp() for _ in names]
                self.emit(f"{', '.join(srcs)}, = "
                          f"{self.uniform(value, defined)}")
            elif isinstance(value, ast.Tuple) \
                    and len(value.elts) == len(names):
                srcs = []
                for e in value.elts:
                    tmp = self.temp()
                    self.emit(f"{tmp} = {self.expr(e, m, defined)}")
                    srcs.append(tmp)
            else:
                raise Unsupported("tuple assignment")
            for name, src in zip(names, srcs):
                self.assign_name(name, src, m, defined)
        elif isinstance(target, ast.Subscript):
            self.store(target, self.expr(value, m, defined), m, defined)
        else:
            raise Unsupported("assignment target")

    def augassign(self, stmt: ast.AugAssign, m, defined: set) -> None:
        op = type(stmt.op)
        if op not in _BINOPS:
            raise Unsupported(f"operator `{op.__name__}`")
        target = stmt.target
        if isinstance(target, ast.Name):
            if target.id not in defined:
                raise Unsupported(f"`{target.id}` may be unbound")
            if target.id in self.varying:
                src = (f"_j_ar(_j_{op.__name__}, {target.id}, "
                       f"{self.expr(stmt.value, m, defined)}, "
                       f"{self.mask(m)})")
            else:
                src = (f"({target.id} {_PY_BINOPS[op]} "
                       f"{self.uniform(stmt.value, defined)})")
            self.assign_name(target.id, src, m, defined)
        elif isinstance(target, ast.Subscript):
            idx = self.index(target, m, defined)
            old = self.temp()
            self.emit(f"{old} = {self.load_src(target, idx, m)}")
            val = self.expr(stmt.value, m, defined)
            self.store(target, f"_j_ar(_j_{op.__name__}, {old}, {val}, "
                               f"{self.mask(m)})", m, defined, idx)
        else:
            raise Unsupported("augmented assignment target")

    def shared_alloc(self, target, call: ast.Call, m, live: bool) -> None:
        if not (live and self.mask(m) == "None" and self.loop_depth == 0
                and self.depth == 1 and isinstance(target, ast.Name)):
            raise Unsupported("shared array allocated off the kernel's "
                              "straight-line entry")
        if target.id in self.shared:
            raise Unsupported("shared array name rebound")
        dtype_node = call.args[1] if len(call.args) > 1 else None
        for kw in call.keywords:
            if kw.arg != "dtype" or dtype_node is not None:
                raise Unsupported("shared array arguments")
            dtype_node = kw.value
        if not call.args or len(call.args) > 2:
            raise Unsupported("shared array arguments")
        shape = self.const_eval(call.args[0])
        if isinstance(shape, int):
            shape = (shape,)
        if not (isinstance(shape, tuple)
                and all(type(s) is int and s >= 0 for s in shape)):
            raise Unsupported("shared array shape is not constant")
        dtype = np.float32 if dtype_node is None \
            else self.dtype_eval(dtype_node)
        self.shared[target.id] = shape
        self.emit(f"{target.id} = _j_shared(_j_lanes, _j_sh, {shape!r}, "
                  f"{self.const(dtype)})")

    def const_eval(self, node):
        """A launch-constant int expression (shared-array shapes)."""
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in self.consts \
                and type(self.consts[node.id]) is int:
            return self.consts[node.id]
        if isinstance(node, ast.Tuple):
            return tuple(self.const_eval(e) for e in node.elts)
        if isinstance(node, ast.BinOp) and type(node.op) in (
                ast.Add, ast.Sub, ast.Mult, ast.FloorDiv):
            left, right = self.const_eval(node.left), \
                self.const_eval(node.right)
            if type(left) is int and type(right) is int \
                    and not (isinstance(node.op, ast.FloorDiv)
                             and right == 0):
                return _BINOPS[type(node.op)](left, right)
        raise Unsupported("shared array shape is not constant")

    def dtype_eval(self, node):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in self.np_names:
            value = getattr(np, node.attr, None)
            if isinstance(value, type) and issubclass(value, np.generic):
                return value
        raise Unsupported("shared array dtype is not a numpy type")

    def if_stmt(self, stmt: ast.If, m, defined: set, live: bool) -> None:
        if not self._varies(stmt.test):
            self.emit(f"if {self.uniform(stmt.test, defined)}:")
            d_body = self.nested(stmt.body, m, defined, live)
            d_else = set(defined)
            if stmt.orelse:
                self.emit("else:")
                d_else = self.nested(stmt.orelse, m, defined, live)
            defined |= self._merge(stmt, d_body, d_else)
            return
        body_ret = _ends_in_return(stmt.body)
        else_ret = _ends_in_return(stmt.orelse)
        if (body_ret or else_ret) and not (live and self.loop_depth == 0):
            raise Unsupported("early return inside a loop or a varying "
                              "branch")
        mk = self.mask(m)
        truth = self.temp()
        self.emit(f"{truth} = _j_truth(_j_lanes, "
                  f"{self.expr(stmt.test, m, defined, truth=True)})")
        m_body = self.temp()
        self.emit(f"{m_body} = _j_mand({mk}, {truth})")
        d_body = self.branch(stmt.body, m_body, defined, body_ret)
        m_else = self.temp()
        if stmt.orelse or body_ret:
            self.emit(f"{m_else} = _j_mand({mk}, ~{truth})")
        d_else = set(defined)
        if stmt.orelse:
            d_else = self.branch(stmt.orelse, m_else, defined, else_ret)
        if body_ret and else_ret:
            self.emit("return")
        elif body_ret or else_ret:
            self.emit(f"_j_live = {m_else if body_ret else m_body}")
            self.emit("if not _j_live.any():")
            self.emit("    return")
            self.after_return = True
        defined |= self._merge(stmt, d_body, d_else)

    @staticmethod
    def _merge(stmt: ast.If, d_body: set, d_else: set) -> set:
        """Names bound on every path that continues past ``stmt``."""
        if _ends_in_return(stmt.body):
            return d_else
        if _ends_in_return(stmt.orelse):
            return d_body
        return d_body & d_else

    def nested(self, body, m, defined: set, live: bool) -> set:
        inner = set(defined)
        self.depth += 1
        start = len(self.lines)
        self.stmts(body, m, inner, live)
        if len(self.lines) == start:
            self.emit("pass")
        self.depth -= 1
        return inner

    def branch(self, body, m_branch: str, defined: set, returns: bool) -> set:
        self.emit(f"if {m_branch}.any():")
        outer = self.fresh
        self.fresh = self.locals - self.assigned
        inner = self.nested(body[:-1] if returns else body, m_branch,
                            defined, live=False)
        self.fresh = outer
        return inner

    def for_stmt(self, stmt: ast.For, m, defined: set, live: bool) -> None:
        it = stmt.iter
        if stmt.orelse or not (
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and self.has_range
                and 1 <= len(it.args) <= 3 and not it.keywords):
            raise Unsupported("loop is not a plain range loop")
        if any(self._varies(a) for a in it.args):
            raise Unsupported("loop bound varies across lanes")
        bounds = ", ".join(self.uniform(a, defined) for a in it.args)
        self.emit(f"for {stmt.target.id} in range({bounds}):")
        inner = set(defined) | {stmt.target.id}
        self.loop_body(stmt.body, m, inner, live)
        defined.discard(stmt.target.id)

    def loop_body(self, body, m, defined: set, live: bool) -> None:
        for node in body:
            for n in ast.walk(node):
                if isinstance(n, (ast.Break, ast.Continue)):
                    raise Unsupported("break/continue")
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    self.assigned.add(n.id)     # carried to the next trip
        self.loop_depth += 1
        self.nested(body, m, defined, live)
        self.loop_depth -= 1

    # -- memory -------------------------------------------------------------

    def index(self, node: ast.Subscript, m, defined: set) -> str:
        elts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                else [node.slice])
        if any(isinstance(e, (ast.Slice, ast.Starred)) for e in elts):
            raise Unsupported("slice subscript")
        parts = [self.expr(e, m, defined) for e in elts]
        tmp = self.temp()
        self.emit(f"{tmp} = ({', '.join(parts)},)")
        return tmp

    def _memory(self, node: ast.Subscript) -> str:
        if not isinstance(node.value, ast.Name):
            raise Unsupported("subscript of an expression")
        name = node.value.id
        if name in self.shared:
            return "shared"
        if name in self.arrays:
            return "global"
        raise Unsupported(f"subscript of `{name}`")

    def load_src(self, node: ast.Subscript, idx: str, m) -> str:
        name = node.value.id
        mk = self.mask(m)
        if self._memory(node) == "shared":
            return f"_j_sld(_j_lanes, {name}, {idx}, {mk})"
        touch = f"_j_touch_{name}" if name in self.written else "None"
        return f"_j_ld(_j_lanes, {name}, {idx}, {mk}, {touch})"

    def store(self, node: ast.Subscript, src: str, m, defined: set,
              idx: str | None = None) -> None:
        kind = self._memory(node)
        if idx is None:
            idx = self.index(node, m, defined)
        name = node.value.id
        mk = self.mask(m)
        if kind == "shared":
            self.emit(f"_j_sst(_j_lanes, {name}, {idx}, {src}, {mk})")
        else:
            self.emit(f"_j_st(_j_lanes, {name}, {idx}, {src}, {mk}, "
                      f"_j_touch_{name})")

    # -- expressions --------------------------------------------------------

    def _const_int(self, call: ast.Call, expect: int | None = None) -> int:
        if len(call.args) != 1 or call.keywords:
            raise Unsupported("intrinsic arguments")
        n = self.const_eval(call.args[0])
        if n not in (1, 2, 3) or (expect is not None and n != expect):
            raise Unsupported("intrinsic dimension")
        return n

    def name(self, node: ast.Name, defined: set) -> str:
        n = node.id
        if n in self.params and n not in self.arrays:
            return n
        if n in self.locals:
            if n in self.shared or n not in defined:
                raise Unsupported(f"`{n}` may be unbound here")
            return n
        if n in self.consts:
            return self.const(self.consts[n])
        raise Unsupported(f"`{n}` used as a value")

    def attribute(self, node: ast.Attribute, defined: set):
        """Launch-uniform attributes (None: not one of them)."""
        base = node.value
        if node.attr in _AXES:
            axis = _AXES.index(node.attr)
            if self._is_cuda(base, "blockDim"):
                return repr(self.block[axis])
            if self._is_cuda(base, "gridDim"):
                return repr(self.grid[axis])
        if isinstance(base, ast.Name) and node.attr in _ARRAY_ATTRS:
            if base.id in self.arrays:
                return f"{base.id}.{node.attr}"
            if base.id in self.shared:
                shape = self.shared[base.id]
                return repr({"size": int(np.prod(shape)), "shape": shape,
                             "ndim": len(shape)}[node.attr])
        return None

    def uniform(self, node, defined: set) -> str:
        """Plain Python for an expression every lane evaluates alike."""
        if isinstance(node, ast.Constant):
            if type(node.value) not in _PY_SCALARS \
                    and node.value is not None:
                raise Unsupported("non-numeric constant")
            return repr(node.value)
        if isinstance(node, ast.Name):
            return self.name(node, defined)
        if isinstance(node, ast.Attribute):
            src = self.attribute(node, defined)
            if src is None:
                raise Unsupported("attribute")
            return src
        if isinstance(node, ast.BinOp):
            op = _PY_BINOPS.get(type(node.op))
            if op is None:
                raise Unsupported("operator")
            return (f"({self.uniform(node.left, defined)} {op} "
                    f"{self.uniform(node.right, defined)})")
        if isinstance(node, ast.UnaryOp):
            op = {ast.USub: "-", ast.UAdd: "+", ast.Not: "not "}.get(
                type(node.op))
            if op is None:
                raise Unsupported("operator")
            return f"({op}{self.uniform(node.operand, defined)})"
        if isinstance(node, ast.Compare):
            parts = [self.uniform(node.left, defined)]
            for op, right in zip(node.ops, node.comparators):
                if type(op) not in _PY_CMPOPS:
                    raise Unsupported("comparison")
                parts += [_PY_CMPOPS[type(op)], self.uniform(right, defined)]
            return f"({' '.join(parts)})"
        if isinstance(node, ast.BoolOp):
            op = " and " if isinstance(node.op, ast.And) else " or "
            return f"({op.join(self.uniform(v, defined) for v in node.values)})"
        if isinstance(node, ast.IfExp):
            return (f"({self.uniform(node.body, defined)} if "
                    f"{self.uniform(node.test, defined)} else "
                    f"{self.uniform(node.orelse, defined)})")
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr == "shape":
                return (f"{self.uniform(base, defined)}"
                        f"[{self.uniform(node.slice, defined)}]")
            if self._memory(node) == "global" \
                    and node.value.id not in self.written:
                return (f"{node.value.id}"
                        f"[{self.uniform(node.slice, defined)}]")
            raise Unsupported("uniform subscript")
        if isinstance(node, ast.Tuple):
            return f"({''.join(self.uniform(e, defined) + ', ' for e in node.elts)})"
        if isinstance(node, ast.Call) \
                and self._is_cuda(node.func, "gridsize"):
            n = self._const_int(node)
            sizes = [self.grid[a] * self.block[a] for a in range(n)]
            return repr(sizes[0] if n == 1 else tuple(sizes))
        raise Unsupported(f"`{type(node).__name__}` expression")

    def expr(self, node, m, defined: set, truth: bool = False) -> str:
        """Source for ``node`` evaluated on the lanes of mask ``m``.
        Loads (and branches of ``IfExp``/``and``/``or``) run only on the
        lanes that evaluate them in the interpreter."""
        if not self._varies(node):
            return self.uniform(node, defined)
        mk = self.mask(m)
        if isinstance(node, ast.Name):
            return self.name(node, defined)
        if isinstance(node, ast.Attribute):
            base = node.value
            if node.attr in _AXES:
                for which, intrinsic in (("tid", "threadIdx"),
                                         ("bid", "blockIdx")):
                    if self._is_cuda(base, intrinsic):
                        return self.lanes_ref(which, _AXES.index(node.attr))
            raise Unsupported("attribute")
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise Unsupported("operator")
            return (f"_j_ar(_j_{type(node.op).__name__}, "
                    f"{self.expr(node.left, m, defined)}, "
                    f"{self.expr(node.right, m, defined)}, {mk})")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return (f"_j_neg({self.expr(node.operand, m, defined)}, "
                        f"{mk})")
            if isinstance(node.op, ast.Not):
                inner = self.expr(node.operand, m, defined, truth=True)
                return f"~_j_truth(_j_lanes, {inner})"
            raise Unsupported("operator")
        if isinstance(node, ast.Compare):
            return self.compare(node, m, defined)
        if isinstance(node, ast.BoolOp):
            if not truth:
                raise Unsupported("`and`/`or` used as a value")
            return self.boolop(node, m, defined)
        if isinstance(node, ast.IfExp):
            return self.ifexp(node, m, defined)
        if isinstance(node, ast.Subscript):
            return self.load_src(node, self.index(node, m, defined), m)
        if isinstance(node, ast.Call) and self._is_cuda(node.func, "grid") \
                and self._const_int(node, 1):
            return self.lanes_ref("grid", 0)
        raise Unsupported(f"`{type(node).__name__}` expression")

    def compare(self, node: ast.Compare, m, defined: set) -> str:
        """``a < b < c`` is ``a < b and b < c`` with ``b`` evaluated
        once; each later term runs only on lanes still true."""
        if any(type(op) not in _CMPOPS for op in node.ops):
            raise Unsupported("comparison")
        left = self.temp()
        self.emit(f"{left} = {self.expr(node.left, m, defined)}")
        acc = None
        sub = m
        for op, term in zip(node.ops, node.comparators):
            right = self.temp()
            self.emit(f"{right} = {self.expr(term, sub, defined)}")
            test = (f"_j_cmp(_j_{type(op).__name__}, {left}, {right}, "
                    f"{self.mask(sub)})")
            if acc is None and len(node.ops) == 1:
                return test
            if acc is None:
                acc = self.temp()
                self.emit(f"{acc} = _j_truth(_j_lanes, {test})")
            else:
                self.emit(f"{acc} = {acc} & _j_truth(_j_lanes, {test})")
            if term is not node.comparators[-1]:
                sub = self.temp()
                self.emit(f"{sub} = _j_mand({self.mask(m)}, {acc})")
            left = right
        return acc

    def boolop(self, node: ast.BoolOp, m, defined: set) -> str:
        is_and = isinstance(node.op, ast.And)
        acc = self.temp()
        self.emit(f"{acc} = _j_truth(_j_lanes, "
                  f"{self.expr(node.values[0], m, defined, truth=True)})")
        for value in node.values[1:]:
            sub = self.temp()
            self.emit(f"{sub} = _j_mand({self.mask(m)}, "
                      f"{acc if is_and else '~' + acc})")
            right = self.expr(value, sub, defined, truth=True)
            self.emit(f"{acc} = {acc} {'&' if is_and else '|'} "
                      f"_j_truth(_j_lanes, {right})")
        return acc

    def ifexp(self, node: ast.IfExp, m, defined: set) -> str:
        out = self.temp()
        if not self._varies(node.test):
            self.emit(f"if {self.uniform(node.test, defined)}:")
            self.depth += 1
            self.emit(f"{out} = {self.expr(node.body, m, defined)}")
            self.depth -= 1
            self.emit("else:")
            self.depth += 1
            self.emit(f"{out} = {self.expr(node.orelse, m, defined)}")
            self.depth -= 1
            return out
        truth = self.temp()
        self.emit(f"{truth} = _j_truth(_j_lanes, "
                  f"{self.expr(node.test, m, defined, truth=True)})")
        mk = self.mask(m)
        m_body, m_else = self.temp(), self.temp()
        self.emit(f"{m_body} = _j_mand({mk}, {truth})")
        body = self.expr(node.body, m_body, defined)
        a = self.temp()
        self.emit(f"{a} = {body}")
        self.emit(f"{m_else} = _j_mand({mk}, ~{truth})")
        orelse = self.expr(node.orelse, m_else, defined)
        self.emit(f"{out} = _j_sel({truth}, {a}, {orelse})")
        return out

# ---------------------------------------------------------------------------
# Compiled variants
# ---------------------------------------------------------------------------


class Variant:
    """How one launch signature runs: ``fn`` is the lowered function,
    or ``None`` for the interpreter (``reason`` says why)."""

    def __init__(self, fn=None, written=(), reason: str = "") -> None:
        self.fn = fn
        self.written = written          # positions of written arrays
        self.reason = reason

    @property
    def lowered(self) -> bool:
        return self.fn is not None

    def run(self, run_args) -> bool:
        """Run the lowered function; False means the interpreter must
        run this launch (nothing it would see has changed)."""
        modes = np.geterr()
        if self.fn is None or any(mode not in ("ignore", "warn")
                                  for mode in modes.values()):
            return False                # floating-point errors must raise
        arrays = [(pos, a) for pos, a in enumerate(run_args)
                  if type(a) is np.ndarray]
        for pos in self.written:
            w = run_args[pos]
            if any(p != pos and np.may_share_memory(a, w)
                   for p, a in arrays):
                return False            # aliased arguments
        saved = [(run_args[pos], run_args[pos].copy())
                 for pos in self.written]
        # a floating-point error numpy would warn about sends the launch
        # to the interpreter, which prints the warning
        flagged: list = []
        lowered_modes = {kind: "call" if mode == "warn" else "ignore"
                         for kind, mode in modes.items()}
        try:
            with np.errstate(call=lambda err, flag: flagged.append(err),
                             **lowered_modes):
                self.fn(*run_args)
            if flagged:
                raise _Bail(f"numpy would warn: {flagged[0]}")
        except Exception as exc:  # noqa: BLE001 - the interpreter reruns
            for arr, copy in saved:
                if arr.flags.writeable:
                    np.copyto(arr, copy)
            self.fn = None
            self.reason = f"rolled back: {type(exc).__name__}: {exc}"
            return False
        return True


def specialize(kernel, run_args, grid: tuple, block: tuple) -> Variant:
    """Prove and lower ``kernel`` for one launch signature."""
    if not _NEP50:
        return Variant(reason="numpy < 2 promotes Python scalars by value, "
                              "not as NEP 50 weak scalars")
    fn = kernel.fn
    try:
        src = kernel_source(fn)
        lowerer = _Lowerer(src.fdef, run_args, _free_values(fn),
                           grid, block)
        code = lowerer.generate()
    except Unsupported as exc:
        return Variant(reason=str(exc))
    ints = {p: int(a) for p, a in zip(lowerer.params, run_args)
            if type(a) in (int, bool) or (isinstance(a, np.generic)
                                          and a.dtype.kind in "biu")}
    ints.update((n, int(v)) for n, v in lowerer.consts.items()
                if isinstance(v, (int, np.integer)))
    shapes = {p: a.shape for p, a in zip(lowerer.params, run_args)
              if p in lowerer.arrays}
    verdict = kernel.classify(LaunchSpec(
        grid=grid, block=block, ints=ints, shapes=shapes,
        source=src.source, filename=src.filename,
        line_offset=src.line_offset))
    if verdict is None or not (verdict.vectorizable and verdict.verified):
        why = "no verdict" if verdict is None else (
            f"{verdict.klass}, OOB {verdict.oob}, "
            f"{verdict.divergent_barriers} divergent barrier(s), "
            f"{verdict.races} shared race(s)")
        return Variant(reason=f"not proven: {why}")
    lanes = _Lanes(grid, block)
    namespace = dict(_RUNTIME)
    namespace.update(lowerer.namespace)
    namespace["_j_lanes"] = lanes
    for name, (which, axis) in lowerer.lane_refs.items():
        namespace[name] = lanes.index(which, axis)
    exec(compile(code, f"<lowered {kernel.name}>", "exec"), namespace)
    written = tuple(pos for pos, p in enumerate(lowerer.params)
                    if p in lowerer.written)
    return Variant(namespace["_j_kernel"], written,
                   reason=f"lowered {verdict.klass}")


__all__ = ["LaunchSpec", "Variant", "signature", "specialize"]
