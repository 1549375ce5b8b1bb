"""analysis-sweep: one cold interprocedural sweep over a frozen corpus.

The corpus (``corpus.tar.gz``, about 200 files and 31k lines: the
package source, the examples and the analyzer fixtures at the time the
benchmark was defined) is checked against its digest at set-up and
unpacked into a scratch directory inside the checkout, so later edits
to the program's own source do not change the workload.  Each repetition
is one ``repro.analysis.run_paths`` call with every default family plus
``absint``, interprocedural, with the summary cache cleared -- as a CLI
or CI process runs it.  This is the only workload for the analysis,
sanitize, perflint and memcheck layers.

Operations are files; work is source lines.  A file that fails to
parse counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import tarfile
import tempfile
from pathlib import Path

from harness import ROOT, Rep, Workload, timed

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.tar.gz"
CORPUS_SHA256 = (
    "1e4af2c9a1198572ad4c1e7100f107ed285f5c76a828566012df255a364140a6")
CORPUS_DIRS = ("src/repro", "examples", "tests/perflint/fixtures",
               "tests/memcheck/fixtures", "tests/analysis/fixtures",
               "tests/analysis/fixtures_absint",
               "tests/analysis/fixtures_interproc")
WORK = ROOT / ".perfbench-work"
#: the warm-up sweeps only these, to load every analyzer family
WARMUP_FILES = 12


def read_corpus() -> dict[str, bytes]:
    """Verify the corpus digest and return its files by relative path."""
    data = CORPUS.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CORPUS_SHA256:
        raise RuntimeError(f"{CORPUS.name} digest {digest} does not match "
                           f"the frozen {CORPUS_SHA256}")
    files = {}
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as tar:
        for member in tar:
            name = Path(member.name)
            if (not member.isfile() or name.is_absolute()
                    or ".." in name.parts):
                raise RuntimeError(f"unexpected corpus member {member.name}")
            files[member.name] = tar.extractfile(member).read()
    return files


class AnalysisSweep(Workload):
    name = "analysis-sweep"

    def __init__(self) -> None:
        self._tree: Path | None = None

    def setup(self, seed: int, small: bool = False):
        # the corpus is fixed; the seed only names the run.  It is
        # verified at every set-up and unpacked once per process:
        # writing 200 files is file-system noise, not program work
        files = read_corpus()
        if self._tree is None:
            WORK.mkdir(exist_ok=True)
            self._tree = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK))
            for name, body in files.items():
                target = self._tree / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(body)
        # relative, so no directory above the checkout can reach the
        # analyzers' path-based scoping
        root = os.path.relpath(self._tree)
        if small:
            names = sorted(files)[:WARMUP_FILES]
            files = {n: files[n] for n in names}
            paths = [os.path.join(root, n) for n in names]
        else:
            paths = [root]
        lines = sum(body.count(b"\n") for body in files.values())
        return root, paths, len(files), lines

    def close(self) -> None:
        if self._tree is not None:
            shutil.rmtree(self._tree)
            self._tree = None
        try:
            WORK.rmdir()
        except OSError:
            pass

    def run(self, state, rec) -> Rep:
        import repro.analysis as analysis

        root, paths, files, lines = state
        families = analysis.KNOWN_ANALYZERS + ("absint",)
        result, seconds, nominal_s = timed(lambda: analysis.run_paths(
            paths, families, interprocedural=True))

        errors = []
        parsed = len(result.contexts)
        if parsed != files:
            errors.append(f"{parsed} of {files} corpus files analyzed")
        if analysis.parse_count() != parsed:
            errors.append(f"{analysis.parse_count()} parses for "
                          f"{parsed} files")
        failed = sum(1 for ctx in result.contexts.values() if not ctx.ok)
        failed += files - parsed
        prefix = root + os.sep
        findings = sorted(
            (f.file.removeprefix(prefix), f.line, f.rule,
             f.message.replace(prefix, ""))
            for f in result.report.findings)
        cache = analysis.summary_cache_info()
        lookups = cache["hits"] + cache["misses"]
        counters = {
            "analysis.files": parsed,
            "analysis.parses": analysis.parse_count(),
            "analysis.findings": len(findings),
            "analysis.summary_cache_hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0),
        }
        return Rep(seconds=seconds, nominal_s=nominal_s, ops=files,
                   failed=failed, ops_per_s=files / nominal_s,
                   work_per_s=lines / nominal_s,
                   digest=hashlib.sha256(
                       repr(findings).encode()).hexdigest()[:16],
                   errors=errors, counters=counters)
