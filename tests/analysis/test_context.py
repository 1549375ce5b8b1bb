"""AnalysisContext: the one-parse-per-file contract and derived views."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_ANALYZERS,
    KNOWN_ANALYZERS,
    AnalysisContext,
    analyze_source,
    parse_count,
    reset_parse_count,
    run_paths,
)
from repro.analysis.absint import absint_context
from repro.analysis.driver import collect_files
from repro.perflint.costpass import extract_plans

REPO = Path(__file__).resolve().parents[2]
FIXTURE_DIRS = sorted((REPO / "tests" / "analysis").glob("fixtures*"))


class TestSingleParse:
    def test_full_repo_all_analyzers_parses_each_file_exactly_once(self):
        """The acceptance criterion: every family over src/repro with
        one ast.parse per file, measured by the framework's own hook."""
        paths = [REPO / "src" / "repro"]
        n_files = len(collect_files(paths))
        reset_parse_count()
        run = run_paths(paths, analyzers=KNOWN_ANALYZERS)
        assert n_files > 100
        assert len(run.contexts) == n_files
        assert parse_count() == n_files

    def test_context_parses_once_for_all_views(self):
        reset_parse_count()
        ctx = AnalysisContext("import time\nx = 1\n", "f.py")
        _ = ctx.lines, ctx.suppressions, ctx.cuda_names, ctx.namespaces
        _ = ctx.imports_repro
        assert parse_count() == 1

    def test_per_family_entry_points_share_the_context(self):
        from repro.analysis.driver import analyze_context

        reset_parse_count()
        ctx = AnalysisContext("x = 1\n", "f.py")
        for family in KNOWN_ANALYZERS:
            analyze_context(ctx, analyzers=(family,))
        assert parse_count() == 1


class TestOneTraversal:
    def test_every_module_is_walked_at_most_once(self, monkeypatch):
        """All families, absint and the interprocedural layer share the
        context's one ``ast.walk`` of each module."""
        walks: Counter = Counter()
        real_walk = ast.walk

        def counting_walk(node):
            if isinstance(node, ast.Module):
                walks[id(node)] += 1
            return real_walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        run = run_paths(FIXTURE_DIRS, analyzers=ALL_ANALYZERS,
                        interprocedural=True)
        assert len(run.contexts) >= 15
        assert walks, "the context's own traversal was not observed"
        assert max(walks.values()) == 1
        assert len(walks) <= len(run.contexts)

    def test_kernel_linter_runs_once_per_kernel(self, monkeypatch):
        from repro.sanitize.astlint import _KernelLinter

        linted: Counter = Counter()
        real_run = _KernelLinter.run

        def counting_run(self):
            linted[id(self.fn)] += 1
            return real_run(self)

        monkeypatch.setattr(_KernelLinter, "run", counting_run)
        run = run_paths([REPO / "tests" / "analysis" / "fixtures_absint"],
                        analyzers=("kernel", "absint"))
        kernels = sum(len(absint_context(ctx).classes)
                      for ctx in run.contexts.values())
        assert kernels > 0
        assert sum(linted.values()) == kernels
        assert max(linted.values()) == 1

    def test_nodes_of_keeps_bfs_order(self):
        ctx = AnalysisContext("def f():\n    def g():\n        pass\n"
                              "class C:\n    def h(self):\n        pass\n"
                              "async def a():\n    pass\n", "f.py")
        defs = ctx.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef)
        assert defs == [n for n in ast.walk(ctx.tree)
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        assert [d.name for d in defs] == ["f", "a", "g", "h"]
        assert ctx.nodes_of(ast.FunctionDef) is ctx.nodes_of(ast.FunctionDef)

    def test_imports_table(self):
        ctx = AnalysisContext(
            "import a.b\nimport c as d\nfrom . import e\n"
            "def f():\n    from ..g import h as i\n    from ..g import *\n",
            "f.py")
        rows = [(i.name, i.asname, i.module, i.level, i.bound)
                for i in ctx.imports]
        assert rows == [("a.b", None, None, 0, "a"),
                        ("c", "d", None, 0, "d"),
                        ("e", None, "", 1, "e"),
                        ("h", "i", "g", 2, "i"),
                        ("*", None, "g", 2, "*")]


#: one file spelling every namespace the passes care about through an
#: alias: ``cp``/``cupy`` for xp, ``cu`` for cuda, ``N`` for nn
_ALIASED = """\
import cupy
import random as rnd
import time as clock

import numpy as npy
import repro.xp as X
from repro import nn as N
from repro.gpu import make_system
from repro.jit import cuda as cu

system = make_system(1, "T4")
host = npy.ones((8,))

for step in range(3):
    staged = cp.asarray(host)
    scratch = cupy.zeros((64,))
    moved = X.asarray(host)

bad = X.zeros((2, 3)) @ X.zeros((4, 5))
unseen = cupy.zeros((2, 3)) @ cupy.zeros((4, 5))
layer = N.Linear(3, 4)
out = layer(X.zeros((2, 5)))
huge = X.zeros((100000, 100000))
hidden = cp.zeros((100000, 100000))

stamp = clock.time()
draw = rnd.random()


@cu.jit
def strided(a, b):
    i = cu.grid(1)
    b[i] = a[i * 2]


@cuda.jit
def plain(a):
    i = cuda.grid(1)
    a[i * 4] = 0.0
"""


class TestAliasAnswers:
    """Each alias question keeps its own seed set: the PERF rules treat
    ``cp``/``cupy`` as a device namespace even unimported, the shape and
    memory passes only ``xp`` and what the file binds to it."""

    def test_alias_views(self):
        ctx = AnalysisContext(_ALIASED, "lab/aliases.py")
        assert ctx.cuda_names == {"cuda", "cu"}
        assert ctx.namespaces == ({"xp", "X"}, {"N"},
                                  {"np", "numpy", "npy"})
        assert ctx.xp_receivers == {"xp", "cp", "cupy", "X"}
        assert ctx.imports_repro

    def test_every_family_keeps_its_answer(self):
        report = analyze_source(_ALIASED, "lab/aliases.py", ALL_ANALYZERS)
        found = sorted((f.line, f.rule) for f in report.findings)
        assert found == [
            (15, "PERF-LOOP-TRANSFER"),   # cp: a PERF receiver unimported
            (16, "PERF-LOOP-ALLOC"),
            (17, "PERF-LOOP-TRANSFER"),
            (19, "PERF-SHAPE"),           # X is repro.xp; line 20's
            (22, "PERF-SHAPE"),           # cupy is not a shape namespace
            (23, "MEM-PEAK-OOM"),         # line 24's cp is not tracked
            (26, "DET-WALLCLOCK"),
            (27, "DET-UNSEEDED-RNG"),
            (31, "VEC-VECTORIZABLE"),
            (33, "SAN-OOB"),
            (33, "SAN-OOB"),
            (33, "SAN-UNCOALESCED"),      # @cu.jit is a kernel
            (37, "VEC-VECTORIZABLE"),
            (39, "SAN-OOB"),
            (39, "SAN-UNCOALESCED"),
        ]


class TestBfsOrder:
    """Answers that depend on ``ast.walk`` order stay as they were."""

    def test_first_kernel_def_in_bfs_order_binds_the_launch(self):
        ctx = AnalysisContext(
            "from repro.jit import cuda\n"
            "def outer():\n"
            "    @cuda.jit\n"
            "    def k(a):\n"
            "        i = cuda.grid(1)\n"
            "        a[i] = 1.0\n"
            "@cuda.jit\n"
            "def k(a):\n"
            "    i = cuda.grid(1)\n"
            "    a[i] = 2.0\n"
            "k[4, 32](arr)\n", "lab/kernels.py")
        launches = {kc.line: kc.launches
                    for kc in absint_context(ctx).classes}
        # the module-level def is shallower, so it is first in BFS
        # order even though the nested one comes first in the text
        assert launches == {4: 0, 8: 1}

    def test_last_register_student_in_bfs_order_owns_the_plans(self):
        ctx = AnalysisContext(
            "from repro.cloud import BootstrapScript, register_student\n"
            "def setup():\n"
            "    register_student('alice')\n"
            "register_student('bob')\n"
            "plan = BootstrapScript(instance_type='g4dn.xlarge',\n"
            "                       instance_count=1)\n", "lab/plan.py")
        (plan,) = extract_plans(ctx)
        # the nested call is deeper, so it is last in BFS order
        assert plan.owner == "alice"
        assert ctx.plans == [plan]


class TestDerivedViews:
    def test_line_text_respects_offset(self):
        ctx = AnalysisContext("a = 1\nb = 2\n", "f.py", line_offset=10)
        assert ctx.line_text(11) == "a = 1"
        assert ctx.line_text(12) == "b = 2"
        assert ctx.line_text(99) == ""

    def test_syntax_error_is_recorded_not_raised(self):
        ctx = AnalysisContext("def broken(:\n", "bad.py")
        assert not ctx.ok
        assert ctx.tree is None
        assert ctx.syntax_error is not None

    def test_imports_repro(self):
        assert AnalysisContext("from repro.gpu import Device", "f.py") \
            .imports_repro
        assert AnalysisContext("import repro.serve", "f.py").imports_repro
        assert not AnalysisContext("import numpy", "f.py").imports_repro


class TestSuppressions:
    def test_named_rule(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=DET-WALLCLOCK\n", "f.py")
        assert ctx.is_suppressed("DET-WALLCLOCK", 1)
        assert not ctx.is_suppressed("DET-UNSEEDED-RNG", 1)
        assert not ctx.is_suppressed("DET-WALLCLOCK", 2)

    def test_bare_disable_suppresses_everything(self):
        ctx = AnalysisContext("x = 1  # repro: disable\n", "f.py")
        assert ctx.is_suppressed("ANY-RULE", 1)

    def test_multiple_rules_and_case(self):
        ctx = AnalysisContext(
            "x = 1  # repro: disable=mem-leak, PERF-SHAPE\n", "f.py")
        assert ctx.is_suppressed("MEM-LEAK", 1)
        assert ctx.is_suppressed("PERF-SHAPE", 1)
        assert not ctx.is_suppressed("MEM-UAF", 1)


class TestCollectFiles:
    def test_overlapping_paths_dedupe(self, tmp_path):
        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n")
        (sub / "b.py").write_text("y = 2\n")
        files = collect_files([pkg, sub, pkg / "a.py"])
        assert len(files) == 2

    def test_missing_file_surfaces_as_error(self, tmp_path):
        with pytest.raises(OSError):
            run_paths([tmp_path / "nope.py"])
