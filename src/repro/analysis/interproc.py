"""Cross-function findings: the interprocedural rule pass.

Runs after the intra-procedural families, over the resolved call graph
(:mod:`repro.analysis.callgraph`) and the composed function summaries
(:mod:`repro.analysis.summaries`).  Every rule here blames a *call
site* and carries the chain of hops down to the root cause — the
intra-procedural reports are untouched (and byte-identical) whether or
not this pass runs.

* ``PERF-LOOP-TRANSFER`` / ``PERF-LOOP-ALLOC`` — a helper whose summary
  transfers or allocates invariantly, invoked inside a loop with
  loop-invariant arguments: the helper repeats the PCIe crossing (or
  the allocation) every iteration exactly as if it were inlined.
* ``COST-*`` — a plan factory whose constructor fields come from its
  parameters, called with literal arguments: the completed plan is
  priced at the call site with the caller file's teardown/spot context.
* ``MEM-LEAK`` — a helper that returns a device allocation, whose
  result the caller rebinds without ``.free()`` (or re-calls every loop
  iteration without ever freeing): blamed at the leaking caller.
* ``DET-UNSEEDED-RNG`` — the process-global ``random``/``np.random``
  namespace passed into a helper that draws from that parameter, with
  no ``seed(...)`` for the family in either file.
* ``SAN-HOST-CALL-IN-KERNEL`` — host-only API (allocation, I/O, host
  clock) reachable from a ``@cuda.jit`` body through any resolved call
  chain (or called directly in the kernel).

Unresolved call sites contribute nothing — the conservative top
summary makes no claims, so every finding below rests on a proven
chain (precision over recall).
"""

from __future__ import annotations

import ast
from dataclasses import replace

from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analysis.rules import make_finding
from repro.analysis.summaries import (
    FunctionSummary,
    PlanTemplate,
    argument_for,
    file_env,
)
from repro.perflint.perfpass import _arg_names
from repro.sanitize.findings import Report

_PERF_WHAT = {
    "transfer": ("PERF-LOOP-TRANSFER",
                 "transfers the same data across PCIe"),
    "alloc": ("PERF-LOOP-ALLOC", "allocates a same-shaped buffer"),
}


def _def_hop(fn: FunctionInfo) -> tuple:
    return (fn.file, fn.line, fn.qualname)


def _finding_chain(callee: FunctionInfo, chain: tuple) -> tuple:
    """The displayed chain: the callee definition, then the recorded
    hops down to the root cause."""
    return (_def_hop(callee),) + tuple(chain)


class _InterPass:
    """One run's cross-function rules over graph + summaries."""

    def __init__(self, graph: CallGraph,
                 summaries: dict[str, FunctionSummary],
                 analyzers) -> None:
        self.graph = graph
        self.summaries = summaries
        self.analyzers = set(analyzers)
        self.report = Report()
        self._seen: set[tuple] = set()

    def run(self) -> Report:
        for fid in sorted(self.graph.functions):
            fn = self.graph.functions[fid]
            for site in self.graph.callees_of(fid):
                if site.callee is None:
                    continue            # top summary: nothing provable
                callee = self.graph.functions.get(site.callee)
                summary = self.summaries.get(site.callee)
                if callee is None or summary is None:
                    continue
                if "perf" in self.analyzers:
                    self._check_perf(fn, site, callee, summary)
                if "cost" in self.analyzers:
                    self._check_cost(fn, site, callee, summary)
                if "mem" in self.analyzers:
                    self._check_mem(fn, site, callee, summary)
                if "det" in self.analyzers:
                    self._check_det(fn, site, callee, summary)
            if "kernel" in self.analyzers and fn.is_kernel:
                self._check_kernel(fn, fid)
        return self.report

    # -- plumbing -------------------------------------------------------

    def _emit(self, rule: str, message: str, *,
              fn: FunctionInfo, line: int, context: str,
              chain: tuple, dedup_key: tuple) -> None:
        if dedup_key in self._seen:
            return
        if fn.ctx.is_suppressed(rule, line):
            return
        self._seen.add(dedup_key)
        finding = make_finding(rule, message, file=fn.file, line=line,
                               context=context)
        self.report.add(replace(finding, chain=chain))

    # -- PERF: invariant transfer/alloc behind a helper in a loop -------

    def _check_perf(self, fn: FunctionInfo, site: CallSite,
                    callee: FunctionInfo,
                    summary: FunctionSummary) -> None:
        if site.loop_depth == 0:
            return
        if _arg_names(site.call) & site.loop_bound:
            return          # per-iteration inputs: the call is not hoistable
        for effect in summary.by_kind("transfer", "alloc"):
            rule, what = _PERF_WHAT[effect.kind]
            root = effect.root
            self._emit(
                rule,
                f"`{site.name}(...)` {what} on every iteration: "
                f"`{callee.qualname}` reaches `{effect.label}(...)` "
                f"({root[0]}:{root[1]}) and nothing in the call's "
                "arguments changes inside the loop",
                fn=fn, line=site.line, context=effect.label,
                chain=_finding_chain(callee, effect.chain),
                dedup_key=(rule, fn.file, site.line, effect.key))

    # -- COST: plans assembled through factories ------------------------

    def _check_cost(self, fn: FunctionInfo, site: CallSite,
                    callee: FunctionInfo,
                    summary: FunctionSummary) -> None:
        from repro.perflint.costpass import (
            _SPOT_MARKERS,
            _TEARDOWN_MARKERS,
            check_plan,
        )

        if not summary.plans:
            return
        has_teardown = bool(fn.ctx.identifiers & _TEARDOWN_MARKERS)
        has_spot = bool(fn.ctx.identifiers & _SPOT_MARKERS)
        for template in summary.plans.values():
            plan = self._complete_plan(template, site, callee)
            if plan is None:
                continue
            checked = check_plan(plan, has_teardown=has_teardown,
                                 has_spot=has_spot, filename=fn.file)
            chain = _finding_chain(callee, template.chain)
            for finding in checked.findings:
                key = (finding.rule, fn.file, site.line, template.key)
                if key in self._seen \
                        or fn.ctx.is_suppressed(finding.rule, site.line):
                    continue
                self._seen.add(key)
                self.report.add(replace(
                    finding,
                    message=(f"`{site.name}(...)` builds this plan via "
                             f"`{callee.qualname}`: {finding.message}"),
                    chain=chain))

    def _complete_plan(self, template: PlanTemplate, site: CallSite,
                       callee: FunctionInfo) -> "PlanSite | None":
        from repro.perflint.costpass import _NOTEBOOK_DEFAULT_TYPE, \
            PlanSite

        values: dict[str, object] = {}
        for field_name, slot in template.fields:
            if slot[0] == "lit":
                values[field_name] = slot[1]
                continue
            arg = argument_for(site, callee, slot[1])
            if arg is None:
                return None
            try:
                values[field_name] = ast.literal_eval(arg)
            except (ValueError, SyntaxError):
                return None
        try:
            if template.kind == "bootstrap":
                from repro.cloud.bootstrap import BootstrapScript
                script = BootstrapScript(**{
                    k: v for k, v in values.items()
                    if k in ("instance_type", "instance_count",
                             "expected_hours")})
                return PlanSite(
                    kind="bootstrap", type_name=script.instance_type,
                    count=int(script.instance_count),
                    expected_hours=float(script.expected_hours),
                    line=site.line)
            if template.kind == "endpoint":
                from repro.serve.endpoint import EndpointConfig
                fields = EndpointConfig.__dataclass_fields__
                return PlanSite(
                    kind="endpoint",
                    type_name=str(values.get(
                        "instance_type",
                        fields["instance_type"].default)),
                    count=int(values.get(
                        "max_replicas", fields["max_replicas"].default)),
                    expected_hours=float(values.get(
                        "expected_hours",
                        fields["expected_hours"].default)),
                    line=site.line)
            if template.kind == "notebook":
                from repro.cloud.bootstrap import BootstrapScript
                type_name = values.get("type_name",
                                       _NOTEBOOK_DEFAULT_TYPE)
                if not isinstance(type_name, str):
                    return None
                return PlanSite(
                    kind="notebook", type_name=type_name, count=1,
                    expected_hours=BootstrapScript.expected_hours,
                    line=site.line)
        except (TypeError, ValueError):
            return None
        return None

    # -- MEM: escaped allocations dropped by the caller -----------------

    def _check_mem(self, fn: FunctionInfo, site: CallSite,
                   callee: FunctionInfo,
                   summary: FunctionSummary) -> None:
        escapes = summary.by_kind("escape")
        if not escapes or site.bound_to is None:
            return
        name = site.bound_to
        frees, rebinds = self._mem_events(fn, name, site.line)
        loop_leak = site.loop_depth > 0 and not frees
        rebind_leak = None
        for rebind_line in sorted(rebinds):
            if rebind_line <= site.line:
                continue
            if any(site.line < f <= rebind_line for f in frees):
                break
            rebind_leak = rebind_line
            break
        if not loop_leak and rebind_leak is None:
            return
        for effect in escapes:
            root = effect.root
            if loop_leak:
                line = site.line
                message = (
                    f"device buffer {name!r} is allocated by "
                    f"`{callee.qualname}` ({root[0]}:{root[1]}) every "
                    "iteration and never freed: each pass leaks the "
                    "previous buffer")
            else:
                line = rebind_leak
                message = (
                    f"device buffer {name!r} (allocated by "
                    f"`{callee.qualname}` at {root[0]}:{root[1]}) is "
                    "rebound without .free(); its storage is "
                    "unreachable but still charged to the pool")
            if self._mem_suppressed(fn, line):
                continue
            self._emit(
                "MEM-LEAK", message, fn=fn, line=line,
                context=name,
                chain=_finding_chain(callee, effect.chain),
                dedup_key=("MEM-LEAK", fn.file, line, effect.key))

    @staticmethod
    def _mem_suppressed(fn: FunctionInfo, line: int) -> bool:
        """MEM findings honor ``# noqa`` like the intra pass does."""
        from repro.memcheck.mempass import _suppressions

        ctx = fn.ctx
        marks = getattr(ctx, "_interproc_noqa", None)
        if marks is None:
            marks = _suppressions(ctx.dedented)
            ctx._interproc_noqa = marks
        on_line = marks.get(line, ())
        return "*" in on_line or "MEM-LEAK" in on_line

    def _mem_events(self, fn: FunctionInfo, name: str,
                    call_line: int) -> tuple[set, set]:
        """``(free_lines, rebind_lines)`` for one buffer name in the
        caller's scope."""
        from repro.analysis.summaries import _scope_walk

        body = fn.node.body if fn.node is not None else fn.ctx.tree.body
        frees: set[int] = set()
        rebinds: set[int] = set()
        for node, _ in _scope_walk(body):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "free" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == name:
                frees.add(node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id == name \
                            and node.lineno != call_line:
                        rebinds.add(node.lineno)
        return frees, rebinds

    # -- DET: the global RNG handed to a drawing helper -----------------

    def _check_det(self, fn: FunctionInfo, site: CallSite,
                   callee: FunctionInfo,
                   summary: FunctionSummary) -> None:
        draws = summary.by_kind("draw")
        if not draws:
            return
        env = file_env(fn.ctx)
        callee_env = file_env(callee.ctx)
        for effect in draws:
            arg = argument_for(site, callee, effect.param)
            family = self._rng_family(arg, env)
            if family is None:
                continue
            if family in env.seeded or family in callee_env.seeded:
                continue
            root = effect.root
            self._emit(
                "DET-UNSEEDED-RNG",
                f"`{site.name}(...)` passes the process-global "
                f"`{family}` namespace to `{callee.qualname}`, which "
                f"draws via `{effect.param}.{effect.label}()` "
                f"({root[0]}:{root[1]}) and no `{family}.seed(...)` "
                "appears in either file; every run produces different "
                "numbers",
                fn=fn, line=site.line,
                context=f"{family}.{effect.label}",
                chain=_finding_chain(callee, effect.chain),
                dedup_key=("DET-UNSEEDED-RNG", fn.file, site.line,
                           effect.key))

    @staticmethod
    def _rng_family(arg: ast.AST | None, env) -> str | None:
        if isinstance(arg, ast.Name):
            if arg.id in env.aliases.random_mods:
                return "random"
            if arg.id in env.aliases.np_random_mods:
                return "np.random"
        if isinstance(arg, ast.Attribute) and arg.attr == "random" \
                and isinstance(arg.value, ast.Name) \
                and arg.value.id in env.aliases.np_names:
            return "np.random"
        return None

    # -- SAN: host-only API reachable from a kernel ---------------------

    def _check_kernel(self, fn: FunctionInfo, fid: str) -> None:
        # host calls directly in the kernel body
        own = self.summaries.get(fid)
        if own is not None:
            for effect in own.by_kind("host"):
                if len(effect.chain) == 1:
                    root = effect.root
                    self._emit(
                        "SAN-HOST-CALL-IN-KERNEL",
                        f"`{effect.label}(...)` is host-only API inside "
                        f"the `@cuda.jit` kernel `{fn.qualname}`",
                        fn=fn, line=root[1], context=effect.label,
                        chain=(),
                        dedup_key=("SAN-HOST", fid, effect.key))
        # host calls reached through helpers
        for site in self.graph.callees_of(fid):
            if site.callee is None:
                continue
            callee = self.graph.functions.get(site.callee)
            summary = self.summaries.get(site.callee)
            if callee is None or summary is None:
                continue
            for effect in summary.by_kind("host"):
                root = effect.root
                self._emit(
                    "SAN-HOST-CALL-IN-KERNEL",
                    f"`{site.name}(...)` reaches host-only API "
                    f"`{effect.label}(...)` ({root[0]}:{root[1]}) from "
                    f"the `@cuda.jit` kernel `{fn.qualname}`",
                    fn=fn, line=site.line, context=effect.label,
                    chain=_finding_chain(callee, effect.chain),
                    dedup_key=("SAN-HOST", fid, site.line, effect.key))


def interprocedural_pass(graph: CallGraph,
                         summaries: dict[str, FunctionSummary],
                         analyzers) -> Report:
    """Run every cross-function rule the requested families own."""
    return _InterPass(graph, summaries, analyzers).run()


__all__ = ["interprocedural_pass"]
