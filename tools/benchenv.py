"""The environment block that every ``tools/bench_*.py`` script writes into
its ``BENCH_*.json``: the git revision of the measured sources, the Python
and numpy versions and ``nproc``."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def environment(src: Path) -> dict:
    """The "git", "python", "numpy" and "nproc" entries of a BENCH document
    measuring the sources under src.  numpy is imported here, so call this
    after every measurement: a child's max RSS counts what its parent held
    when it was spawned."""
    import numpy

    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(src), *argv], capture_output=True, text=True, check=True).stdout

    return {
        "git": {"revision": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain", "--", ".").strip())},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
