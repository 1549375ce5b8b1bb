"""CFG construction, reachability, scopes, and the unrolled schedule."""

import ast
import textwrap

from repro.analysis import AnalysisContext
from repro.analysis.cfg import (
    LOOP_PASSES,
    build_cfg,
    scopes,
    unrolled_schedule,
)


def _parse(src: str) -> ast.Module:
    return ast.parse(textwrap.dedent(src))


def _lines(stmts) -> list:
    return [s.lineno for s in stmts]


class TestBuild:
    def test_straight_line_is_one_block_plus_exit(self):
        tree = _parse("""
            a = 1
            b = 2
            c = a + b
        """)
        cfg = build_cfg(tree.body)
        assert _lines(cfg.entry.stmts) == [2, 3, 4]
        assert cfg.entry.succs == [cfg.exit]

    def test_if_branches_diverge_and_rejoin(self):
        tree = _parse("""
            if cond:
                a = 1
            else:
                a = 2
            b = a
        """)
        cfg = build_cfg(tree.body)
        # entry holds the If; two arms; both rejoin at the block with b=a
        assert len(cfg.entry.succs) == 2
        joins = {s.id for arm in cfg.entry.succs for s in arm.succs}
        assert len(joins) == 1
        after = cfg.blocks[joins.pop()]
        assert _lines(after.stmts) == [6]

    def test_loop_has_zero_iteration_and_back_edges(self):
        tree = _parse("""
            total = 0
            for x in xs:
                total += x
            done = total
        """)
        cfg = build_cfg(tree.body)
        loop = next(s for s in ast.walk(tree) if isinstance(s, ast.For))
        header = cfg.block_of[id(loop)]
        body = next(b for b in header.succs if b.stmts
                    and b.stmts[0].lineno == 4)
        after = next(b for b in header.succs if b is not body)
        assert header in body.succs            # back edge
        assert after in header.succs           # zero-iteration path
        # the loop body can re-reach the statement after the loop
        assert any(s.lineno == 5
                   for s in cfg.statements_after(body.stmts[0]))

    def test_return_cuts_fallthrough(self):
        tree = _parse("""
            def f():
                if cond:
                    return 1
                return 2
        """)
        fn = tree.body[0]
        cfg = build_cfg(fn.body)
        ret1 = fn.body[0].body[0]
        assert cfg.statements_after(ret1) == []

    def test_break_targets_loop_exit(self):
        tree = _parse("""
            for x in xs:
                if x:
                    break
                y = x
            z = 1
        """)
        cfg = build_cfg(tree.body)
        brk = next(s for s in ast.walk(tree) if isinstance(s, ast.Break))
        after_lines = {s.lineno for s in cfg.statements_after(brk)}
        assert 6 in after_lines        # z = 1 reachable from break
        assert 5 not in after_lines    # y = x is not

    def test_try_handler_edges(self):
        tree = _parse("""
            try:
                a = risky()
            except ValueError:
                a = 0
            b = a
        """)
        cfg = build_cfg(tree.body)
        trystmt = tree.body[0]
        after_lines = {s.lineno for s in cfg.statements_after(trystmt)}
        assert {3, 5, 6} <= after_lines


class TestReachability:
    def test_reachable_from_respects_direction(self):
        tree = _parse("""
            a = 1
            if cond:
                b = 2
            c = 3
        """)
        cfg = build_cfg(tree.body)
        c_stmt = tree.body[2]
        # nothing before c=3 appears after it
        assert {s.lineno for s in cfg.statements_after(c_stmt)} == set()
        assert cfg.reachable_from(c_stmt)

    def test_unknown_statement_is_empty(self):
        cfg = build_cfg(_parse("a = 1").body)
        orphan = ast.parse("b = 2").body[0]
        assert cfg.reachable_from(orphan) == set()
        assert cfg.statements_after(orphan) == []


class TestScopes:
    def test_module_then_each_function(self):
        ctx = AnalysisContext("""
            x = 1
            def outer():
                def inner():
                    pass
            async def aio():
                pass
        """)
        found = list(scopes(ctx))
        names = [getattr(node, "name", "<module>") for node, _ in found]
        assert names[0] == "<module>"
        assert set(names[1:]) == {"outer", "inner", "aio"}


class TestUnrolledSchedule:
    def test_loop_bodies_repeat_loop_passes_times(self):
        tree = _parse("""
            a = 1
            for x in xs:
                b = x
            c = 2
        """)
        sched = _lines(unrolled_schedule(tree.body))
        assert sched == [2] + [4] * LOOP_PASSES + [5]

    def test_if_arms_concatenate(self):
        tree = _parse("""
            if cond:
                a = 1
            else:
                b = 2
        """)
        assert _lines(unrolled_schedule(tree.body)) == [3, 5]

    def test_nested_loops_multiply(self):
        tree = _parse("""
            for i in xs:
                for j in ys:
                    k = i * j
        """)
        sched = unrolled_schedule(tree.body)
        assert len(sched) == LOOP_PASSES * LOOP_PASSES
