"""One parse per file: the :class:`AnalysisContext` every pass shares.

Before the unified framework, each analyzer family re-read and
re-parsed the same file — the kernel linter, the perflint families, and
the memcheck pass each called ``ast.parse`` on identical source.  The
context parses **exactly once** and hands every pass the same tree,
source, line index, namespace aliases, and suppression table.

It also walks the tree at most once: :attr:`AnalysisContext.nodes` is
the one ``ast.walk`` of the module, :meth:`AnalysisContext.nodes_of`
answers "every node of these types" from it, and
:attr:`AnalysisContext.imports` is the one import table every alias
question (cuda, xp, nn, numpy, repro) is asked of.  Passes never call
``ast.walk(ctx.tree)`` themselves.

``parse_count()`` / ``reset_parse_count()`` expose the framework's own
instrumentation: the test-suite runs the full all-analyzers driver over
the repository and asserts one parse per file.
"""

from __future__ import annotations

import ast
import re
import textwrap
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from repro.analysis.cfg import loop_bound_names

_parse_count = 0


def parse_count() -> int:
    """How many times the framework has called ``ast.parse``."""
    return _parse_count


def reset_parse_count() -> None:
    global _parse_count
    _parse_count = 0


#: ``# repro: disable=RULE-A,RULE-B`` (or bare ``# repro: disable``)
_DISABLE_RE = re.compile(
    r"#\s*repro:\s*disable(?:\s*=\s*(?P<rules>[A-Za-z0-9_\-,\s]+))?")


class ImportedName(NamedTuple):
    """One name an import statement binds: a row of
    :attr:`AnalysisContext.imports`.  ``name`` is ``a.b`` for
    ``import a.b`` and ``f`` for ``from m import f``; ``module`` is the
    ``from`` module (``""`` for ``from . import f``), ``None`` for a
    plain ``import``."""

    name: str
    asname: str | None
    module: str | None
    level: int           # relative-import dots

    @property
    def is_from(self) -> bool:
        return self.module is not None

    @property
    def bound(self) -> str:
        """The name the statement binds in the importing scope."""
        if self.asname:
            return self.asname
        return self.name if self.is_from else self.name.split(".")[0]


class AnalysisContext:
    """Everything the passes need about one file, computed once."""

    def __init__(self, source: str, filename: str = "<string>", *,
                 line_offset: int = 0) -> None:
        global _parse_count
        self.filename = filename or "<string>"
        self.source = source
        self.dedented = textwrap.dedent(source)   # preserves line numbers
        self.line_offset = line_offset
        self.syntax_error: SyntaxError | None = None
        _parse_count += 1
        try:
            tree = ast.parse(self.dedented, filename=self.filename)
        except SyntaxError as exc:
            self.syntax_error = exc
            tree = None
        else:
            if line_offset:
                ast.increment_lineno(tree, line_offset)
        self.tree: ast.Module | None = tree
        self._memo: dict = {}      # see memo()

    @classmethod
    def from_file(cls, path: str | Path) -> "AnalysisContext":
        path = Path(path)
        return cls(path.read_text(), filename=str(path))

    @property
    def ok(self) -> bool:
        return self.syntax_error is None

    def syntax_finding(self):
        """The ``SAN-SYNTAX`` finding for a file that did not parse."""
        from repro.analysis.rules import make_finding

        exc = self.syntax_error
        return make_finding("SAN-SYNTAX", f"syntax error: {exc.msg}",
                            file=self.filename,
                            line=(exc.lineno or 0) + self.line_offset)

    # -- derived views, each computed at most once ----------------------

    @cached_property
    def lines(self) -> list[str]:
        return self.dedented.splitlines()

    def line_text(self, lineno: int) -> str:
        """Source text of a 1-based (offset-adjusted) line, or ``""``."""
        idx = lineno - self.line_offset - 1
        if 0 <= idx < len(self.lines):
            return self.lines[idx]
        return ""

    @cached_property
    def suppressions(self) -> dict[int, set[str]]:
        """``# repro: disable`` table: line -> suppressed rule ids
        (``{"*"}`` for a bare disable)."""
        out: dict[int, set[str]] = {}
        for n, line in enumerate(self.lines, start=1 + self.line_offset):
            m = _DISABLE_RE.search(line)
            if not m:
                continue
            rules = m.group("rules")
            if rules is None:
                out[n] = {"*"}
            else:
                out[n] = {r.strip().upper() for r in rules.split(",")
                          if r.strip()}
        return out

    def is_suppressed(self, rule: str, line: int) -> bool:
        marks = self.suppressions.get(line, ())
        return "*" in marks or rule.upper() in marks

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in ``ast.walk`` (BFS) order: the
        file's one traversal.  Finding order can depend on BFS order
        (first definition wins, last owner wins), so every view below
        keeps it."""
        return list(ast.walk(self.tree)) if self.tree is not None else []

    def nodes_of(self, *types: type) -> list:
        """The nodes whose type is exactly one of ``types``, in BFS
        order.  Each distinct query filters :attr:`nodes` once and is
        kept for the context's lifetime; callers must not mutate it."""
        return self.memo(
            types, lambda: [n for n in self.nodes if type(n) in types])

    def memo(self, key, build):
        """``build()``, computed once per context and ``key``: where a
        pass keeps a per-file result other passes reuse."""
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = build()
        return found

    @cached_property
    def identifiers(self) -> set[str]:
        """Every ``Name`` id and ``Attribute`` attr in the file (the
        teardown and spot markers the COST rules test for)."""
        return ({n.id for n in self.nodes_of(ast.Name)}
                | {n.attr for n in self.nodes_of(ast.Attribute)})

    @cached_property
    def imports(self) -> tuple[ImportedName, ...]:
        """Every name any ``import`` / ``from ... import`` in the file
        binds, nested scopes included, in BFS order."""
        out: list[ImportedName] = []
        for node in self.nodes_of(ast.Import, ast.ImportFrom):
            module = (node.module or "") \
                if type(node) is ast.ImportFrom else None
            out.extend(ImportedName(a.name, a.asname, module,
                                    getattr(node, "level", 0))
                       for a in node.names)
        return tuple(out)

    # -- the alias questions, each a query over ``imports`` -------------

    @cached_property
    def cuda_names(self) -> set[str]:
        """Names bound to a cuda-like namespace (kernel linter, absint):
        ``cuda`` plus ``from m import cuda [as c]`` and
        ``import m.cuda as c``."""
        names = {"cuda"}
        for imp in self.imports:
            if imp.is_from:
                if imp.name == "cuda":
                    names.add(imp.bound)
            elif imp.asname and imp.name.endswith(".cuda"):
                names.add(imp.asname)
        return names

    @cached_property
    def namespaces(self) -> tuple[set[str], set[str], set[str]]:
        """``(xp_names, nn_names, np_names)`` alias sets (shape, memory
        and summary passes); ``xp`` and ``np``/``numpy`` always count."""
        xp, nn, np_names = {"xp"}, set(), {"np", "numpy"}
        for imp in self.imports:
            if not imp.is_from:
                if imp.name in ("repro.xp", "cupy"):
                    xp.add(imp.asname or "xp")
                elif imp.name == "numpy":
                    np_names.add(imp.bound)
                elif imp.name == "repro.nn":
                    nn.add(imp.asname or "nn")
            elif imp.module == "repro":
                if imp.name == "xp":
                    xp.add(imp.bound)
                elif imp.name == "nn":
                    nn.add(imp.bound)
            elif imp.module in ("repro.nn", "repro.nn.layers"):
                nn.add(imp.bound)
        return xp, nn, np_names

    @cached_property
    def xp_receivers(self) -> set[str]:
        """Receivers the PERF transfer/allocation rules treat as a
        device namespace: ``xp``, ``cp`` and ``cupy`` even unimported,
        plus every alias of ``repro.xp`` / ``cupy``."""
        names = {"xp", "cp", "cupy"}
        for imp in self.imports:
            if not imp.is_from:
                if imp.name in ("repro.xp", "cupy") and imp.asname:
                    names.add(imp.asname)
            elif imp.module == "repro" and imp.name == "xp":
                names.add(imp.bound)
        return names

    @cached_property
    def imports_repro(self) -> bool:
        """Does the module import anything from the simulated stack?
        The DET wall-clock rule only applies to simulated-clock code."""
        for imp in self.imports:
            mod = imp.module if imp.is_from else imp.name
            if imp.level == 0 and (mod == "repro"
                                   or mod.startswith("repro.")):
                return True
        return False

    # -- per-pass results shared between families ------------------------

    @cached_property
    def plans(self) -> list:
        """The file's literal launch plans
        (:func:`repro.perflint.costpass.extract_plans`), shared by the
        cost, IAM and memory passes."""
        from repro.perflint.costpass import extract_plans

        return extract_plans(self)

    def kernel_lint(self, fn: ast.FunctionDef) -> list:
        """The syntactic kernel linter's findings for one ``@cuda.jit``
        definition, run once per definition: the ``kernel`` family
        reports them and absint counts their SAN-SHARED-RACE."""
        from repro.sanitize.astlint import _KernelLinter

        return self.memo(fn, lambda: _KernelLinter(
            fn, self.cuda_names, self.filename).run().findings)

    def loop_bound_names(self, loop: ast.stmt) -> frozenset:
        """:func:`repro.analysis.cfg.loop_bound_names` once per loop:
        the PERF pass and the call graph's loop sites ask it of the
        same loops."""
        return self.memo(loop, lambda: loop_bound_names(loop))


__all__ = ["AnalysisContext", "ImportedName", "parse_count",
           "reset_parse_count"]
