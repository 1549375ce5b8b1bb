"""The abstract-interpretation kernel verifier: launch-environment
extraction, proof-grade OOB verdicts, barrier-divergence precision
(including the affine-cancellation win over the syntactic heuristic),
archetype classification, helper inlining, line numbers under a
``line_offset``, the family split (the ``kernel`` family reports the
SAN-OOB / SAN-BARRIER-DIV proofs, ``absint`` adds only the VEC-* notes),
and the single rule registry."""

import ast
import re
from pathlib import Path

from repro.analysis.absint import (
    absint_context,
    absint_source,
    classify_kernel,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.driver import analyze_source
from repro.analysis.rules import RULES, all_rules

REPO = Path(__file__).resolve().parents[2]

SAXPY_GUARDED = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]

def main():
    n = 1 << 20
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[(n + 255) // 256, 256](2.0, x, y, out)
"""

SAXPY_UNGUARDED = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    out[i] = a * x[i] + y[i]

def main():
    n = 1000
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    y = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    saxpy[4, 256](2.0, x, y, out)
"""

NEGATIVE_OFFSET = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def shift(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i - 1]

def main():
    n = 1024
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    shift[4, 256](x, out)
"""

UNIFORM_BARRIER = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def scale(x, out):
    i = cuda.grid(1)
    tx = cuda.threadIdx.x
    block_base = i - tx
    if block_base >= 0:
        cuda.syncthreads()
    if i < out.size:
        out[i] = x[i]

def main():
    n = 1024
    x = cuda.to_device(np.ones(n, dtype=np.float32))
    out = cuda.device_array(n)
    scale[4, 256](x, out)
"""

DIVERGENT_BARRIER = """\
from repro.jit import cuda

@cuda.jit
def bad(x, out):
    i = cuda.grid(1)
    if x[i] > 0:
        cuda.syncthreads()
    out[i] = x[i]
"""


class TestLaunchEnv:
    def test_launch_site_binds_dims_and_extents(self):
        result = absint_source(SAXPY_GUARDED, "saxpy.py")
        kc = result.classes[0]
        assert kc.launches == 1
        assert kc.kernel == "saxpy"

    def test_no_launch_still_analyzes_with_anonymous_env(self):
        src = "\n".join(SAXPY_GUARDED.splitlines()[:8]) + "\n"
        result = absint_source(src, "saxpy.py")
        kc = result.classes[0]
        assert kc.launches == 0
        # without a launch site every array gets its *own* anonymous
        # extent, so a guard on ``out.size`` alone cannot vouch for
        # ``x[i]`` — the verdict stays unknown, and unknown is silent
        assert kc.oob == "unknown"
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-OOB"]

    def test_guards_on_every_array_prove_without_a_launch(self):
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def double(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size:\n"
            "        out[i] = 2.0 * x[i]\n"
        )
        kc = absint_source(src, "d.py").classes[0]
        assert kc.launches == 0
        assert kc.oob == "proven_safe"

    def test_result_cached_on_context(self):
        ctx = AnalysisContext(SAXPY_GUARDED, filename="saxpy.py")
        assert absint_context(ctx) is absint_context(ctx)


class TestOOBVerdicts:
    def test_guarded_saxpy_is_proven_safe(self):
        result = absint_source(SAXPY_GUARDED, "saxpy.py")
        kc = result.classes[0]
        assert kc.oob == "proven_safe"
        assert kc.verified
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-OOB"]

    def test_unguarded_saxpy_is_flagged(self):
        result = absint_source(SAXPY_UNGUARDED, "saxpy.py")
        assert result.classes[0].oob == "oob"
        oob = [f for f in result.report.findings if f.rule == "SAN-OOB"]
        assert oob and oob[0].line == 7

    def test_negative_offset_breaks_lower_bound(self):
        result = absint_source(NEGATIVE_OFFSET, "shift.py")
        assert result.classes[0].oob == "oob"
        oob = [f for f in result.report.findings if f.rule == "SAN-OOB"]
        assert any("negative" in f.message for f in oob)

    def test_classification_survives_the_oob(self):
        # an out-of-bounds elementwise kernel is still elementwise —
        # the verdicts are orthogonal axes of the contract
        result = absint_source(SAXPY_UNGUARDED, "saxpy.py")
        kc = result.classes[0]
        assert kc.klass == "elementwise"
        assert not kc.verified


class TestBarrierPrecision:
    def test_block_uniform_predicate_is_not_divergent(self):
        # ``i - tx`` cancels to a block-only affine form; the barrier
        # under it is uniform even though the *names* in the predicate
        # are thread-tainted — a syntactic taint walk would flag it
        result = absint_source(UNIFORM_BARRIER, "scale.py")
        assert not [f for f in result.report.findings
                    if f.rule == "SAN-BARRIER-DIV"]
        kc = result.classes[0]
        assert kc.barriers == 1
        assert kc.divergent_barriers == 0
        assert kc.oob == "proven_safe"

    def test_data_dependent_barrier_is_divergent(self):
        result = absint_source(DIVERGENT_BARRIER, "bad.py")
        div = [f for f in result.report.findings
               if f.rule == "SAN-BARRIER-DIV"]
        assert div and div[0].context == "bad"
        kc = result.classes[0]
        assert kc.klass == "divergent-fallback"
        assert kc.divergent_barriers == 1
        assert any("thread-varying" in r for r in kc.reasons)
        assert [f for f in result.report.findings
                if f.rule == "VEC-DIVERGENT"]

    def test_barrier_after_thread_varying_early_exit_is_divergent(self):
        # threads that took the early return never reach the barrier —
        # a real deadlock under lockstep semantics, divergent even
        # though the barrier itself is at top level
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def k(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i >= out.size:\n"
            "        return\n"
            "    cuda.syncthreads()\n"
            "    out[i] = x[i]\n"
        )
        result = absint_source(src, "k.py")
        assert [f for f in result.report.findings
                if f.rule == "SAN-BARRIER-DIV"]


class TestClassification:
    def test_stencil_with_halo(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def smooth(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if 1 <= i < out.size - 1:\n"
            "        out[i] = (x[i - 1] + x[i] + x[i + 1]) / 3.0\n\n"
            "def main():\n"
            "    n = 4096\n"
            "    x = cuda.to_device(np.ones(n, dtype=np.float32))\n"
            "    out = cuda.device_array(n)\n"
            "    smooth[16, 256](x, out)\n"
        )
        kc = absint_source(src, "s.py").classes[0]
        assert kc.klass == "stencil"
        assert kc.halo == 1
        assert kc.oob == "proven_safe"

    def test_shared_tree_reduction(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def block_sum(v, partials):\n"
            "    tile = cuda.shared.array(64, np.float32)\n"
            "    tx = cuda.threadIdx.x\n"
            "    i = cuda.grid(1)\n"
            "    tile[tx] = v[i] if i < v.size else 0.0\n"
            "    cuda.syncthreads()\n"
            "    stride = 32\n"
            "    while stride > 0:\n"
            "        if tx < stride:\n"
            "            tile[tx] += tile[tx + stride]\n"
            "        cuda.syncthreads()\n"
            "        stride //= 2\n"
            "    if tx == 0:\n"
            "        partials[cuda.blockIdx.x] = tile[0]\n"
        )
        kc = absint_source(src, "r.py").classes[0]
        assert kc.klass == "reduction"
        assert kc.divergent_barriers == 0
        assert kc.shared == ("tile",)

    def test_tiled_matmul(self):
        src = (
            "import numpy as np\n"
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def matmul(a, b, c):\n"
            "    sa = cuda.shared.array((16, 16), np.float32)\n"
            "    sb = cuda.shared.array((16, 16), np.float32)\n"
            "    tx = cuda.threadIdx.x\n"
            "    ty = cuda.threadIdx.y\n"
            "    i, j = cuda.grid(2)\n"
            "    acc = 0.0\n"
            "    for t in range(4):\n"
            "        sa[ty, tx] = a[i, t * 16 + tx]\n"
            "        sb[ty, tx] = b[t * 16 + ty, j]\n"
            "        cuda.syncthreads()\n"
            "        for k in range(16):\n"
            "            acc += sa[ty, k] * sb[k, tx]\n"
            "        cuda.syncthreads()\n"
            "    c[i, j] = acc\n"
        )
        kc = absint_source(src, "mm.py").classes[0]
        assert kc.klass == "tiled-matmul"
        assert kc.divergent_barriers == 0
        assert kc.shared == ("sa", "sb")

    def test_affine_device_helper_is_inlined(self):
        src = (
            "from repro.jit import cuda\n\n"
            "def shifted(i, off):\n"
            "    base = i + off\n"
            "    return base\n\n"
            "@cuda.jit\n"
            "def k(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size - 2:\n"
            "        out[shifted(i, 2)] = x[i]\n"
        )
        kc = absint_source(src, "h.py").classes[0]
        assert kc.oob == "proven_safe"
        assert kc.klass == "stencil"

    def test_non_affine_subscript_falls_back(self):
        src = (
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def gather(idx, x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < out.size:\n"
            "        out[i] = x[idx[i]]\n"
        )
        kc = absint_source(src, "g.py").classes[0]
        assert kc.klass == "divergent-fallback"
        assert any("non-affine" in r for r in kc.reasons)


RACY_SHARED = """\
import numpy as np
from repro.jit import cuda

@cuda.jit
def racy(v, out):
    tile = cuda.shared.array(64, np.float32)
    tx = cuda.threadIdx.x
    tile[tx] = v[tx]
    out[tx] = tile[tx + 1]
"""


def _rules(source, filename, analyzers):
    return {f.rule for f in analyze_source(
        source, filename, analyzers=analyzers).findings}


class TestFamilies:
    """The ``kernel`` family reports absint's SAN-OOB / SAN-BARRIER-DIV
    proofs on its own; ``absint`` adds only the VEC-* notes."""

    def test_block_uniform_barrier_is_clean_under_kernel(self):
        assert "SAN-BARRIER-DIV" not in _rules(
            UNIFORM_BARRIER, "scale.py", ("kernel",))

    def test_divergent_barrier_is_flagged_under_kernel(self):
        assert "SAN-BARRIER-DIV" in _rules(
            DIVERGENT_BARRIER, "bad.py", ("kernel",))

    def test_shared_race_still_fires_under_kernel(self):
        assert "SAN-SHARED-RACE" in _rules(RACY_SHARED, "racy.py",
                                           ("kernel",))

    def test_absint_alone_emits_only_vec_notes(self):
        for source in (SAXPY_UNGUARDED, DIVERGENT_BARRIER, RACY_SHARED):
            rules = _rules(source, "k.py", ("absint",))
            assert rules and all(r.startswith("VEC-") for r in rules)

    def test_every_same_named_kernel_gets_a_verdict(self):
        # launch sites bind by name, so the second `k` is proven under
        # no launch env rather than skipped
        src = (
            "from repro.jit import cuda\n\n"
            "def first():\n"
            "    @cuda.jit\n"
            "    def k(x):\n"
            "        i = cuda.grid(1)\n"
            "        if i < x.size:\n"
            "            x[i] = 0.0\n\n"
            "def second():\n"
            "    @cuda.jit\n"
            "    def k(x):\n"
            "        i = cuda.grid(1)\n"
            "        x[i] = 0.0\n"
        )
        assert [kc.oob for kc in absint_source(src, "k.py").classes] == \
            ["proven_safe", "oob"]
        oob = [f for f in analyze_source(src, "k.py",
                                         analyzers=("kernel",)).findings
               if f.rule == "SAN-OOB"]
        assert [f.line for f in oob] == [14]


class TestLineOffset:
    def test_findings_shift_by_exactly_the_offset(self):
        base = absint_source(SAXPY_UNGUARDED, "saxpy.py")
        shifted = absint_source(SAXPY_UNGUARDED, "saxpy.py",
                                line_offset=40)
        assert [f.line + 40 for f in base.report.findings] == \
            [f.line for f in shifted.report.findings]
        assert shifted.classes[0].line == base.classes[0].line + 40

    def test_divergence_message_names_the_shifted_predicate_line(self):
        shifted = absint_source(DIVERGENT_BARRIER, "bad.py",
                                line_offset=100)
        div = [f for f in shifted.report.findings
               if f.rule == "SAN-BARRIER-DIV"]
        assert div[0].line == 107
        assert "(line 106)" in div[0].message


class TestRuleRegistry:
    def test_every_emitted_rule_id_is_registered(self):
        # the rule-id literals the passes hand to make_finding (directly
        # or through an _emit helper) are exactly the registered rules
        rule_id = re.compile(r"^[A-Z]+(-[A-Z]+)+$")
        src = REPO / "src" / "repro"
        ids = set()
        for pkg in ("analysis", "sanitize", "perflint", "memcheck"):
            for path in sorted((src / pkg).glob("*.py")):
                if path.name == "rules.py":
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call) and node.args \
                            and isinstance(node.args[0], ast.Constant) \
                            and isinstance(node.args[0].value, str) \
                            and rule_id.match(node.args[0].value):
                        ids.add(node.args[0].value)
        assert ids == set(RULES), sorted(ids ^ set(RULES))

    def test_catalog_is_the_registry(self):
        assert all_rules() == RULES
        assert len(all_rules()) == 35     # the five merged registries


class TestClassifyKernelAPI:
    def test_classify_live_kernel_from_file(self, tmp_path):
        mod = tmp_path / "kern.py"
        mod.write_text(
            "from repro.jit import cuda\n\n"
            "@cuda.jit\n"
            "def double(x, out):\n"
            "    i = cuda.grid(1)\n"
            "    if i < x.size and i < out.size:\n"
            "        out[i] = 2.0 * x[i]\n"
        )
        ns: dict = {}
        code = compile(mod.read_text(), str(mod), "exec")
        exec(code, ns)
        kc = classify_kernel(ns["double"])
        assert kc.klass == "elementwise"
        assert kc.oob == "proven_safe"
        assert kc.kernel == "double"
        # the ``def`` line in the kernel's own file, not shifted twice
        assert kc.line == mod.read_text().splitlines().index(
            "def double(x, out):") + 1

    def test_classify_source_string(self):
        kc = classify_kernel(SAXPY_GUARDED)
        assert kc.klass == "elementwise"
        assert kc.oob == "proven_safe"


class TestAcceptance:
    """ISSUE 9 acceptance: every non-divergent kernel in the shipped
    examples classifies concretely, and >= 80% prove OOB-safe."""

    def test_examples_classify_concretely_and_safely(self):
        classes = []
        for path in sorted((REPO / "examples").rglob("*.py")):
            ctx = AnalysisContext(path.read_text(),
                                  filename=str(path))
            if ctx.ok:
                classes.extend(absint_context(ctx).classes)
        assert classes, "expected kernels in examples/"
        divergent = [k for k in classes
                     if k.klass == "divergent-fallback"]
        assert not divergent, [k.kernel for k in divergent]
        proven = [k for k in classes if k.oob == "proven_safe"]
        assert len(proven) >= 0.8 * len(classes), \
            [(k.kernel, k.oob) for k in classes]

    def test_lab_kernels_classify(self):
        path = REPO / "src" / "repro" / "course" / "labs.py"
        ctx = AnalysisContext(path.read_text(), filename=str(path))
        assert ctx.ok
        result = absint_context(ctx)
        classes = {k.kernel: k for k in result.classes}
        assert classes, "expected kernels in course labs"
        assert all(k.klass != "divergent-fallback"
                   for k in classes.values()), {
                       n: k.reasons for n, k in classes.items()}
