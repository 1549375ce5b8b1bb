"""Rebuild ``corpus.tar.gz``, the frozen input of the analysis-sweep workload.

The corpus is the ``*.py`` files of ``src/repro``, ``examples`` and the
analyzer fixture directories under ``tests``, archived byte-for-byte
reproducibly (sorted members, zeroed times and owners).  Run from the
repository root::

    python3 perfbench/freeze_corpus.py

then put the printed digest into ``analysis_sweep.CORPUS_SHA256``.
Freezing again changes the workload, so do it only in a change that
re-baselines the benchmark.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import tarfile
from pathlib import Path

from analysis_sweep import CORPUS, CORPUS_DIRS

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    raw = io.BytesIO()
    with tarfile.open(fileobj=raw, mode="w", format=tarfile.PAX_FORMAT) as tar:
        for top in CORPUS_DIRS:
            for path in sorted((ROOT / top).rglob("*.py")):
                data = path.read_bytes()
                info = tarfile.TarInfo(path.relative_to(ROOT).as_posix())
                info.size = len(data)
                info.mode = 0o644
                tar.addfile(info, io.BytesIO(data))
    packed = gzip.compress(raw.getvalue(), compresslevel=9, mtime=0)
    CORPUS.write_bytes(packed)
    print(hashlib.sha256(packed).hexdigest())


if __name__ == "__main__":
    main()
